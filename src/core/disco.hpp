// Umbrella header: everything a DISCO application needs.
//
//   #include "core/disco.hpp"
//
// See README.md for the quickstart and examples/ for complete programs.
#pragma once

#include "core/answer.hpp"            // Answer, QueryStats (§4)
#include "core/mediator.hpp"          // Mediator — the main entry point
#include "core/system_catalog.hpp"    // the catalog component C (Fig. 1)
#include "net/network.hpp"            // simulated network & availability
#include "session/health.hpp"         // circuit breakers & probing
#include "session/session.hpp"        // async QueryHandle sessions
#include "sources/csv/csv_source.hpp" // CSV data sources
#include "sources/docstore/doc_store.hpp" // JSON document data sources
#include "sources/kvstore/kv_store.hpp" // key-value data sources
#include "sources/memdb/database.hpp" // memdb relational data sources
#include "wrapper/csv_wrapper.hpp"
#include "wrapper/doc_wrapper.hpp"
#include "wrapper/kv_wrapper.hpp"
#include "wrapper/memdb_wrapper.hpp"
