// Experiment F1 (DESIGN.md): the Figure-1 architecture as a measured
// system.
//
// Builds the figure's component topology — application -> mediators ->
// wrappers -> databases, with one mediator consuming another — runs a
// query mix, and prints the message/row traffic on every edge. This is
// the architecture diagram turned into numbers.
//
//   build/bench/bench_architecture
#include <cstdio>

#include "fedcat/mediator_source.hpp"
#include "worlds.hpp"

int main() {
  using namespace disco;
  using namespace disco::bench;

  // M1: the paper-world mediator over three person sources.
  ScaledWorld tier1(3, 500);

  // M2: application-facing mediator; sees M1 plus one directly-attached
  // CSV source (the heterogeneity of Fig. 1's W/D columns).
  Mediator m2;
  m2.register_wrapper("wm",
                      fedcat::MediatorSource::in_process(&tier1.mediator));
  m2.register_repository(
      catalog::Repository{"m1", "mediator-1", "disco", "2.0.0.1"},
      net::LatencyModel{0.004, 1e-5, 0});
  auto csvw = std::make_shared<wrapper::CsvWrapper>();
  std::string csv_text = "name,salary\n";
  for (int i = 0; i < 200; ++i) {
    csv_text += "ext" + std::to_string(i) + "," +
                std::to_string(100 + i) + "\n";
  }
  csvw->attach_table("files", csv::parse_csv("contractors", csv_text));
  m2.register_wrapper("wcsv", std::move(csvw));
  m2.register_repository(
      catalog::Repository{"files", "fileserver", "csv", "2.0.0.2"},
      net::LatencyModel{0.030, 1e-4, 0});
  m2.execute_odl(R"(
    interface Worker (extent workers) {
      attribute String name;
      attribute Short salary; };
    extent staff of Worker wrapper wm repository m1
      map ((person=staff));
    extent contractors of Worker wrapper wcsv repository files;
  )");

  // The application's query mix.
  const char* queries[] = {
      "select x.name from x in workers where x.salary > 400",
      "count(workers)",
      "select struct(n: x.name, s: x.salary) from x in contractors "
      "where x.salary > 250",
      "select x.name from x in staff",
  };
  int rows_returned = 0;
  for (const char* q : queries) {
    Answer a = m2.query(q);
    rows_returned += static_cast<int>(a.data().size());
  }

  std::printf("F1: Figure-1 topology traffic after a 4-query application "
              "mix (A -> M2 -> {M1, W_csv}; M1 -> W_sql -> {D0, D1, D2})\n\n");
  std::printf("%-28s %8s %10s %10s\n", "edge", "calls", "failures",
              "rows");
  auto edge = [](const char* label, const net::TrafficStats& stats) {
    std::printf("%-28s %8llu %10llu %10llu\n", label,
                static_cast<unsigned long long>(stats.calls),
                static_cast<unsigned long long>(stats.failures),
                static_cast<unsigned long long>(stats.rows));
  };
  edge("M2 -> M1 (mediator)", m2.network().stats("m1"));
  edge("M2 -> csv wrapper", m2.network().stats("files"));
  edge("M1 -> sql wrapper (r0)", tier1.mediator.network().stats("r0"));
  edge("M1 -> sql wrapper (r1)", tier1.mediator.network().stats("r1"));
  edge("M1 -> sql wrapper (r2)", tier1.mediator.network().stats("r2"));
  std::printf("\nrows returned to the application: %d\n", rows_returned);

  // The catalog component C: the system is discoverable from meta-data.
  std::printf("\ncatalog view (C in Fig. 1):\n");
  std::printf("  M2 extents: %s\n",
              m2.query("select x.name from x in metaextent")
                  .data()
                  .to_oql()
                  .c_str());
  std::printf("  M1 extents: %s\n",
              tier1.mediator.query("select x.name from x in metaextent")
                  .data()
                  .to_oql()
                  .c_str());
  return 0;
}
