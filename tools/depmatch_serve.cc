// Copyright 2026 The DepMatch Authors.
// Licensed under the Apache License, Version 2.0.
//
// depmatch_serve: the matching daemon.
//
// Owns an immutable published catalog snapshot, a StatCache, and a
// ThreadPool, and serves the framed binary protocol of
// src/depmatch/service/protocol.h on a local AF_UNIX socket: match two
// inline tables, top-k catalog search (inline table or stored entry),
// insert/update catalog entries (copy-on-write snapshot swap), and
// stats/health — with per-request deadlines, bounded admission
// (explicit kOverloaded shedding), and micro-batched search execution.
//
// The starting catalog is read from --catalog (a sharded store
// directory written by WriteShardedCatalog, core/sharded_store.h) or
// generated synthetically (--corpus_entries, datagen's banded graph
// corpus); both may be empty and filled via insert requests.
//
//   depmatch_serve --socket /tmp/depmatch.sock --corpus_entries 64
//
// Runs until SIGINT/SIGTERM. Both signals are blocked from before the
// service starts its threads (which inherit the mask) and are taken only
// inside sigsuspend, so one sent at any point after the catalog is
// loaded — including on the `listening` line — stops the daemon cleanly.

#include <pthread.h>

#include <csignal>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>

#include "depmatch/common/flags.h"
#include "depmatch/common/status.h"
#include "depmatch/core/graph_catalog.h"
#include "depmatch/core/sharded_store.h"
#include "depmatch/datagen/graph_corpus.h"
#include "depmatch/service/match_service.h"
#include "depmatch/service/server.h"

namespace {

volatile std::sig_atomic_t g_stop_requested = 0;

void HandleStopSignal(int /*signum*/) { g_stop_requested = 1; }

}  // namespace

int main(int argc, char** argv) {
  using depmatch::FlagParser;
  using depmatch::GraphCatalog;
  using depmatch::Result;
  using depmatch::Status;

  FlagParser flags(
      "depmatch_serve: serve schema matching and catalog search over a "
      "local socket (see src/depmatch/service/protocol.h for the wire "
      "format).");
  flags.AddString("socket", "/tmp/depmatch_serve.sock",
                  "AF_UNIX socket path to listen on");
  flags.AddString("catalog", "",
                  "starting catalog: a sharded store directory "
                  "(WriteShardedCatalog); empty = use --corpus_entries");
  flags.AddInt64("corpus_entries", 0,
                 "entries of synthetic banded corpus to start with when "
                 "no --catalog is given (0 = start empty)");
  flags.AddInt64("corpus_seed", 17, "seed for the synthetic corpus");
  flags.AddInt64("threads", 1, "worker threads in the service pool");
  flags.AddInt64("max_queue", 64,
                 "admission bound: requests beyond this are shed with "
                 "kOverloaded");
  flags.AddInt64("max_batch", 8,
                 "longest run of search requests coalesced onto one "
                 "pool pass");
  flags.AddInt64("default_deadline_ms", 0,
                 "deadline for requests that carry none (0 = unlimited)");
  flags.AddInt64("snapshot_history", 8,
                 "past snapshots retained for post-hoc verification");
  flags.AddBool("index", true, "build the tiered index into snapshots");
  flags.AddBool("help", false, "print usage");

  Status parsed = flags.Parse(argc, argv);
  if (!parsed.ok()) {
    std::fprintf(stderr, "%s\n%s", parsed.ToString().c_str(),
                 flags.UsageString().c_str());
    return 2;
  }
  if (flags.GetBool("help")) {
    std::fprintf(stdout, "%s", flags.UsageString().c_str());
    return 0;
  }

  GraphCatalog catalog;
  if (!flags.GetString("catalog").empty()) {
    Result<GraphCatalog> loaded =
        depmatch::ReadShardedCatalog(flags.GetString("catalog"));
    if (!loaded.ok()) {
      std::fprintf(stderr, "failed to load catalog: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    catalog = *std::move(loaded);
  } else if (flags.GetInt64("corpus_entries") > 0) {
    depmatch::GraphCorpusOptions corpus;
    corpus.seed = static_cast<uint64_t>(flags.GetInt64("corpus_seed"));
    size_t entries = static_cast<size_t>(flags.GetInt64("corpus_entries"));
    for (size_t i = 0; i < entries; ++i) {
      Status inserted = catalog.Insert(depmatch::CorpusEntryName(i),
                                       depmatch::CorpusEntry(corpus, i));
      if (!inserted.ok()) {
        std::fprintf(stderr, "failed to build corpus: %s\n",
                     inserted.ToString().c_str());
        return 1;
      }
    }
  }

  depmatch::service::ServiceOptions service_options;
  service_options.num_threads =
      static_cast<size_t>(flags.GetInt64("threads"));
  service_options.max_queue =
      static_cast<size_t>(flags.GetInt64("max_queue"));
  service_options.max_batch =
      static_cast<size_t>(flags.GetInt64("max_batch"));
  service_options.default_deadline_ms =
      static_cast<uint64_t>(flags.GetInt64("default_deadline_ms"));
  service_options.snapshot_history =
      static_cast<size_t>(flags.GetInt64("snapshot_history"));
  service_options.build_index = flags.GetBool("index");

  depmatch::service::ServerOptions server_options;
  server_options.socket_path = flags.GetString("socket");

  // Block the stop signals before MatchService starts any thread, so
  // that every thread inherits the mask and a stop signal stays pending
  // until sigsuspend below takes it.
  sigset_t stop_signals;
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGINT);
  sigaddset(&stop_signals, SIGTERM);
  sigset_t wait_mask;
  pthread_sigmask(SIG_BLOCK, &stop_signals, &wait_mask);
  sigdelset(&wait_mask, SIGINT);
  sigdelset(&wait_mask, SIGTERM);
  std::signal(SIGINT, HandleStopSignal);
  std::signal(SIGTERM, HandleStopSignal);

  size_t starting_entries = catalog.size();
  auto service = std::make_unique<depmatch::service::MatchService>(
      std::move(catalog), service_options);
  depmatch::service::ServiceServer server(std::move(service),
                                          std::move(server_options));
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "failed to start: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::fprintf(stdout, "depmatch_serve: listening on %s (%zu entries)\n",
               server.socket_path().c_str(), starting_entries);
  std::fflush(stdout);

  while (g_stop_requested == 0) {
    sigsuspend(&wait_mask);  // returns once a handler has run
  }

  std::fprintf(stdout, "depmatch_serve: shutting down\n");
  server.Stop();
  return 0;
}
