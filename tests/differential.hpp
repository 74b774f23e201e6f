// The one generator behind the twin-mediator differentials
// (test_vec_differential.cpp: row vs vec; test_doc_differential.cpp:
// MiniSQL vs documents). A seeded world is 1-2 interfaces of a key `k`
// plus 1-3 payload attributes, each interface with 1-3 member extents
// of 0-25 rows and occasional nils (fewer in `k`). The query generator
// cycles eight shapes: whole rows, projections, distinct, equality
// filters, an ordering filter on `k`, two joins and the aggregates.
// Every generated query runs on both twins; `expect_equivalent` asserts
// the same outcome.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/disco.hpp"

namespace disco::differential {

enum class AttrKind { Long, Dbl, Str, Boolean };

struct AttrSpec {
  std::string name;
  AttrKind kind;
};

struct MemberSpec {
  std::string name;  ///< extent == memdb table == doc collection name
  size_t repo = 0;
};

struct IfaceSpec {
  std::string name;
  std::string collective;
  std::vector<AttrSpec> attrs;
  std::vector<MemberSpec> members;
};

inline const char* odl_type(AttrKind kind) {
  switch (kind) {
    case AttrKind::Long:
      return "Long";
    case AttrKind::Dbl:
      return "Double";
    case AttrKind::Str:
      return "String";
    case AttrKind::Boolean:
      return "Boolean";
  }
  return "Long";
}

inline memdb::ColumnType memdb_type(AttrKind kind) {
  switch (kind) {
    case AttrKind::Long:
      return memdb::ColumnType::Int;
    case AttrKind::Dbl:
      return memdb::ColumnType::Real;
    case AttrKind::Str:
      return memdb::ColumnType::Text;
    case AttrKind::Boolean:
      return memdb::ColumnType::Bool;
  }
  return memdb::ColumnType::Int;
}

/// Percent of nil cells: keys carry fewer nils than payload attributes,
/// so most ordering predicates complete; the ones that raise must raise
/// on both twins.
inline int null_pct(const AttrSpec& attr) { return attr.name == "k" ? 5 : 12; }

/// Small domains on purpose: joins must hit, distinct must dedup.
inline Value random_cell(std::mt19937& rng, AttrKind kind, int null_pct) {
  if (static_cast<int>(rng() % 100) < null_pct) return Value::null();
  switch (kind) {
    case AttrKind::Long:
      return Value::integer(static_cast<int64_t>(rng() % 8));
    case AttrKind::Dbl:
      return Value::real(static_cast<double>(rng() % 16) / 2.0);
    case AttrKind::Str:
      return Value::string("s" + std::to_string(rng() % 5));
    case AttrKind::Boolean:
      return Value::boolean(rng() % 2 == 0);
  }
  return Value::null();
}

/// A literal that can appear to the right of a comparison with `kind`.
inline std::string random_literal(std::mt19937& rng, AttrKind kind) {
  switch (kind) {
    case AttrKind::Long:
      return std::to_string(rng() % 8);
    case AttrKind::Dbl:
      return std::to_string(rng() % 8) + ".5";
    case AttrKind::Str:
      return "\"s" + std::to_string(rng() % 5) + "\"";
    case AttrKind::Boolean:
      return rng() % 2 == 0 ? "true" : "false";
  }
  return "0";
}

/// 1-2 interfaces I<i> (collective extent c<i>) of `k` plus 1-3 payload
/// attributes, each with 1-3 members c<i>_<m> spread over `num_repos`
/// repositories.
inline std::vector<IfaceSpec> random_ifaces(std::mt19937& rng,
                                            size_t num_repos) {
  std::vector<IfaceSpec> ifaces;
  const size_t num_ifaces = 1 + rng() % 2;
  for (size_t i = 0; i < num_ifaces; ++i) {
    IfaceSpec iface;
    iface.name = "I" + std::to_string(i);
    iface.collective = "c" + std::to_string(i);
    iface.attrs.push_back({"k", AttrKind::Long});
    const size_t extra = 1 + rng() % 3;
    for (size_t a = 0; a < extra; ++a) {
      const AttrKind kind = static_cast<AttrKind>(rng() % 4);
      iface.attrs.push_back({"a" + std::to_string(a), kind});
    }
    const size_t members = 1 + rng() % 3;
    for (size_t m = 0; m < members; ++m) {
      const size_t repo = num_repos > 1 ? rng() % num_repos : 0;
      iface.members.push_back(
          {iface.collective + "_" + std::to_string(m), repo});
    }
    ifaces.push_back(std::move(iface));
  }
  return ifaces;
}

/// The ODL declaring `ifaces`, each member in `repos[member.repo]`
/// behind wrapper w0.
inline std::string odl_for(const std::vector<IfaceSpec>& ifaces,
                           const std::vector<std::string>& repos) {
  std::string odl;
  for (const IfaceSpec& iface : ifaces) {
    odl += "interface " + iface.name + " (extent " + iface.collective + ") {";
    for (const AttrSpec& attr : iface.attrs) {
      odl += " attribute " + std::string(odl_type(attr.kind)) + " " +
             attr.name + ";";
    }
    odl += " };\n";
    for (const MemberSpec& member : iface.members) {
      odl += "extent " + member.name + " of " + iface.name +
             " wrapper w0 repository " + repos[member.repo] + ";\n";
    }
  }
  return odl;
}

/// The reference twin's options: the row path. Columnar execution is
/// the default, so every reference world turns it off explicitly.
inline Mediator::Options row_path(Mediator::Options options) {
  options.vec.enabled = false;
  return options;
}

struct Outcome {
  bool threw = false;
  bool complete = false;
  std::vector<std::string> rows;
  std::vector<std::string> residuals;
  std::string to_oql;
  size_t vec_batches = 0;
};

inline Outcome run(Mediator& mediator, const std::string& query) {
  Outcome outcome;
  try {
    Answer answer = mediator.query(query);
    outcome.complete = answer.complete();
    for (const Value& item : answer.data().items()) {
      outcome.rows.push_back(item.to_oql());
    }
    std::sort(outcome.rows.begin(), outcome.rows.end());
    outcome.residuals = answer.residual_queries();
    std::sort(outcome.residuals.begin(), outcome.residuals.end());
    outcome.to_oql = answer.to_oql();
    outcome.vec_batches = answer.stats().run.vec_batches;
  } catch (const DiscoError&) {
    outcome.threw = true;
  }
  return outcome;
}

/// The assertion at the heart of both harnesses: when one twin throws
/// the other must too; otherwise the same answer bag (compared as sorted
/// OQL row texts), completeness and residual queries. `reference` is
/// the MiniSQL twin built with row_path(), and never touches the vec
/// path. Returns both outcomes so callers can chain (resubmission).
inline std::pair<Outcome, Outcome> expect_equivalent(
    Mediator& reference, Mediator& other, const std::string& query,
    size_t* compared) {
  Outcome r = run(reference, query);
  Outcome o = run(other, query);
  EXPECT_EQ(r.threw, o.threw) << query;
  if (!r.threw && !o.threw) {
    EXPECT_EQ(r.complete, o.complete) << query;
    EXPECT_EQ(r.rows, o.rows) << query;
    EXPECT_EQ(r.residuals, o.residuals) << query;
    EXPECT_EQ(r.vec_batches, 0u) << query;
  }
  ++*compared;
  return {std::move(r), std::move(o)};
}

/// Random query over `ifaces`. `shape` cycles so every world covers the
/// whole operator mix.
inline std::string random_query(std::mt19937& rng,
                                const std::vector<IfaceSpec>& ifaces,
                                int shape) {
  const IfaceSpec& iface = ifaces[rng() % ifaces.size()];
  // The collective extent unions every member; naming one member skips
  // the union.
  auto extent = [&](const IfaceSpec& i) -> std::string {
    if (rng() % 2 == 0) return i.collective;
    return i.members[rng() % i.members.size()].name;
  };
  const AttrSpec& attr = iface.attrs[rng() % iface.attrs.size()];
  const AttrSpec& attr2 = iface.attrs[rng() % iface.attrs.size()];
  switch (shape % 8) {
    case 0:
      return "select x from x in " + extent(iface);
    case 1:
      return "select x." + attr.name + " from x in " + extent(iface);
    case 2:
      return "select distinct x." + attr.name + " from x in " +
             extent(iface);
    case 3:
      // Equality is total (nil included): never throws. It pushes down
      // to MiniSQL and, subsumed by PATHEQPREDICATE, to the doc wrapper.
      return "select x from x in " + extent(iface) + " where x." +
             attr.name + " = " + random_literal(rng, attr.kind);
    case 4:
      // Ordering over the mostly-non-nil key; a nil key throws on both
      // twins, wherever the filter runs.
      return "select struct(p: x." + attr.name + ", q: x." + attr2.name +
             ") from x in " + extent(iface) + " where x.k >= " +
             std::to_string(rng() % 8);
    case 5: {
      const IfaceSpec& other = ifaces[rng() % ifaces.size()];
      const AttrSpec& rattr = other.attrs[rng() % other.attrs.size()];
      return "select struct(l: x." + attr.name + ", r: y." + rattr.name +
             ") from x in " + extent(iface) + ", y in " + extent(other) +
             " where x.k = y.k";
    }
    case 6: {
      const IfaceSpec& other = ifaces[rng() % ifaces.size()];
      return "select struct(l: x.k, r: y.k) from x in " + extent(iface) +
             ", y in " + extent(other) + " where x.k = y.k and x.k > " +
             std::to_string(rng() % 6);
    }
    default: {
      static const char* fns[] = {"count", "sum", "min", "max", "avg"};
      const char* fn = fns[rng() % 5];
      return std::string(fn) + "(select x.k from x in " + extent(iface) +
             " where x.k != " + std::to_string(rng() % 8) + ")";
    }
  }
}

}  // namespace disco::differential
