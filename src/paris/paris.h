// Umbrella header: the full public API of the PARIS ontology-alignment
// library.
//
// The documented entry point is the `paris::api::Session` facade, which
// owns the whole run lifecycle behind Status-returning methods:
//
//   paris::api::Session session(
//       paris::api::Session::Options().set_threads(4));
//   auto status = session.LoadFromFiles("left.nt", "right.ttl");
//   if (status.ok()) status = session.Align();    // callbacks optional
//   if (status.ok()) status = session.Export("out");
//   if (!status.ok()) { /* every failure is a util::Status */ }
//
// `Session::Align` takes optional `paris::api::RunCallbacks` (per-iteration
// progress + cooperative cancellation), runs can be snapshotted and
// resumed (`SaveResult` / `Resume`), and literal matchers are resolved by
// name through `paris::api::MatcherRegistry`, so custom matchers plug in
// without touching call sites. When new statements arrive after a run,
// `ApplyDelta` + `Realign` merge them and re-align incrementally —
// warm-started from the existing result, recomputing only the delta's
// structural cone — instead of starting cold:
//
//   status = session.ApplyDelta(paris::api::Session::DeltaSide::kLeft,
//                               "updates.nt");          // stages the batch
//   if (status.ok()) status = session.Realign();        // merge + re-align
//
// All public headers are included with the `paris/` prefix, exactly as
// spelled above and below, in-tree and installed alike. See
// src/paris/api/README.md for a quickstart and examples/api_quickstart.cc
// for a buildable walkthrough.
//
// The layers beneath the facade stay public for embedders that need finer
// control (ablations, custom pipelines, the experiment drivers):
//
//   paris::rdf::TermPool pool;
//   paris::ontology::OntologyBuilder b1(&pool, "left"), b2(&pool, "right");
//   ... AddFact / AddType / parse N-Triples ...
//   auto left = b1.Build(), right = b2.Build();
//   paris::core::Aligner aligner(*left, *right);
//   paris::core::AlignmentResult result = aligner.Run();
//
#ifndef PARIS_PARIS_PARIS_H_
#define PARIS_PARIS_PARIS_H_

#include "paris/api/dataset.h"
#include "paris/api/matcher_registry.h"
#include "paris/api/session.h"
#include "paris/baseline/label_match.h"
#include "paris/baseline/self_training.h"
#include "paris/core/aligner.h"
#include "paris/core/class_align.h"
#include "paris/core/config.h"
#include "paris/core/equiv.h"
#include "paris/core/explain.h"
#include "paris/core/instance_align.h"
#include "paris/core/literal_match.h"
#include "paris/core/relation_align.h"
#include "paris/core/relation_scores.h"
#include "paris/core/result_io.h"
#include "paris/core/result_snapshot.h"
#include "paris/core/telemetry.h"
#include "paris/obs/hooks.h"
#include "paris/obs/metrics.h"
#include "paris/obs/trace.h"
#include "paris/ontology/export.h"
#include "paris/ontology/functionality.h"
#include "paris/ontology/ontology.h"
#include "paris/ontology/snapshot.h"
#include "paris/ontology/vocab.h"
#include "paris/rdf/ntriples.h"
#include "paris/rdf/store.h"
#include "paris/rdf/term.h"
#include "paris/rdf/turtle.h"
#include "paris/rdf/triple.h"
#include "paris/util/logging.h"
#include "paris/util/status.h"

#endif  // PARIS_PARIS_PARIS_H_
