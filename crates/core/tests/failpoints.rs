//! The failpoint tests that arm spg-core's fault registry.
//!
//! The registry is process-global, so a fault one test arms can fire in any
//! other test of the same binary that runs a query. These tests therefore
//! live in a test binary of their own, and each holds
//! `failpoints::serial_guard` for its whole run.
#![cfg(feature = "failpoints")]

mod registry {
    use spg_core::failpoints::*;
    use spg_core::QueryError;

    // The registry is process-global, so these assertions share one #[test]
    // rather than racing each other across the parallel test harness.
    #[test]
    fn armed_sites_fire_and_disarm() {
        let _guard = serial_guard();
        clear_all();

        // Unarmed sites are free.
        assert_eq!(check(sites::PHASE1), Ok(()));

        // Budget injection surfaces as the canonical error.
        set(sites::PHASE2, FailAction::Budget, None);
        assert_eq!(check(sites::PHASE2), Err(QueryError::BudgetExceeded));
        clear(sites::PHASE2);
        assert_eq!(check(sites::PHASE2), Ok(()));

        // Hit budgets disarm after N firings.
        set(sites::VERIFY, FailAction::Budget, Some(2));
        assert_eq!(check(sites::VERIFY), Err(QueryError::BudgetExceeded));
        assert_eq!(check(sites::VERIFY), Err(QueryError::BudgetExceeded));
        assert_eq!(check(sites::VERIFY), Ok(()));

        // Panic injection actually panics.
        set(sites::PHASE1, FailAction::Panic, Some(1));
        let caught =
            std::panic::catch_unwind(|| check(sites::PHASE1)).expect_err("must have panicked");
        let msg = caught.downcast_ref::<String>().expect("string payload");
        assert!(msg.contains("failpoint phase1 fired"), "got {msg:?}");
        assert_eq!(check(sites::PHASE1), Ok(()), "hit budget spent");

        // Spec parsing arms the right sites.
        clear_all();
        assert_eq!(init_from_spec("phase1b=delay:0; verify=budget*1"), 2);
        assert_eq!(check(sites::PHASE1B), Ok(()), "delay:0 just sleeps 0ms");
        assert_eq!(check(sites::VERIFY), Err(QueryError::BudgetExceeded));
        assert_eq!(check(sites::VERIFY), Ok(()));

        clear_all();
    }
}

mod executor {
    use spg_core::failpoints::sites;
    use spg_core::paper_example::{self, names::*};
    use spg_core::{
        BatchExecutor, BatchOutcome, BatchResult, CachedEve, Eve, FlightGroup, Query, QueryError,
        SpgCache,
    };
    use spg_graph::VersionedGraph;

    /// Sequential reference: each query on a fresh workspace.
    fn sequential(eve: &Eve<'_>, batch: &[Query]) -> Vec<BatchResult> {
        batch.iter().map(|&q| eve.query(q)).collect()
    }

    /// A cached drain with a drain-local flight group and no deadlines.
    fn run_cached(
        executor: &BatchExecutor,
        cached: &CachedEve<'_, '_>,
        batch: &[Query],
    ) -> BatchOutcome {
        executor.run_cached_coalesced_with_deadlines(cached, &FlightGroup::new(), batch, &[])
    }

    /// Failpoint-injected faults exercise the cohort path, the single-unit
    /// path, the drain-level gate and the singleflight leader. One #[test]
    /// (the registry is process-global) under the serialization guard.
    #[test]
    fn injected_faults_are_contained_and_recovered_from() {
        use spg_core::failpoints::{self, FailAction};

        let _guard = failpoints::serial_guard();
        failpoints::clear_all();

        let g = paper_example::figure1_graph();
        let eve = Eve::with_defaults(&g);
        let batch: Vec<Query> = (1..=8).map(|k| Query::new(S, T, k)).collect();
        let expected = sequential(&eve, &batch);

        // A phase-2 panic inside a cohort poisons only that cohort's
        // unanswered members; the drain recovers on a fresh workspace and
        // an immediate rerun is bit-identical to the sequential reference.
        failpoints::set(sites::PHASE2, FailAction::Panic, Some(1));
        let outcome = BatchExecutor::new(1).run_detailed(&eve, &batch);
        assert_eq!(outcome.stats.panics_isolated, 1);
        let panicked = outcome
            .results
            .iter()
            .filter(|r| matches!(r, Err(QueryError::ExecutionPanicked)))
            .count();
        assert!(panicked >= 1, "the hit member (at least) errors");
        assert_eq!(outcome.stats.errors, panicked);
        for (slot, exp) in outcome.results.iter().zip(&expected) {
            if let Ok(spg) = slot {
                assert_eq!(spg.edges(), exp.as_ref().unwrap().edges());
            }
        }
        let recovered = BatchExecutor::new(1).run_detailed(&eve, &batch);
        assert_eq!(recovered.stats.panics_isolated, 0);
        for (slot, exp) in recovered.results.iter().zip(&expected) {
            assert_eq!(
                slot.as_ref().unwrap().edges(),
                exp.as_ref().unwrap().edges()
            );
        }

        // With sharing off every query is its own single unit, so the same
        // phase-2 panic is contained to exactly one slot: the workspace is
        // replaced and every other slot is answered bit-identically.
        failpoints::set(sites::PHASE2, FailAction::Panic, Some(1));
        let outcome = BatchExecutor::new(2)
            .shared_phase1(false)
            .run_detailed(&eve, &batch);
        assert_eq!(outcome.stats.panics_isolated, 1);
        assert_eq!(outcome.stats.errors, 1);
        assert_eq!(outcome.stats.answered, batch.len() - 1);
        for (slot, exp) in outcome.results.iter().zip(&expected) {
            match slot {
                Ok(spg) => assert_eq!(spg.edges(), exp.as_ref().unwrap().edges()),
                Err(err) => assert_eq!(err, &QueryError::ExecutionPanicked),
            }
        }

        // A drain-level budget fault fails the whole cached drain
        // gracefully: every slot answers with the canonical error.
        let vg = VersionedGraph::new(paper_example::figure1_graph());
        let cache = SpgCache::new(1 << 20);
        let cached = CachedEve::with_defaults(&vg, &cache);
        failpoints::set(sites::BATCH_DRAIN, FailAction::Budget, Some(1));
        let outcome = run_cached(&BatchExecutor::new(2), &cached, &batch);
        assert_eq!(outcome.results.len(), batch.len());
        for slot in &outcome.results {
            assert_eq!(slot.as_ref().unwrap_err(), &QueryError::BudgetExceeded);
        }
        assert!(outcome.slot_sources.iter().all(Option::is_none));

        // A failing singleflight leader broadcasts its error to the led
        // slots instead of leaving flights dangling. The k = 8 slot clamps
        // onto the k = 7 key and *joins* that flight; observing a
        // budget-failed (not panicked) leader it recomputes under its own
        // unlimited budget and recovers the answer.
        failpoints::set(sites::FLIGHT_LEADER, FailAction::Budget, Some(1));
        let outcome = run_cached(&BatchExecutor::new(2), &cached, &batch);
        for (slot, exp) in outcome.results.iter().take(7).zip(&expected) {
            assert_eq!(slot.as_ref().unwrap_err(), &QueryError::BudgetExceeded);
            assert!(exp.is_ok());
        }
        assert_eq!(
            outcome.results[7].as_ref().unwrap().edges(),
            expected[7].as_ref().unwrap().edges(),
            "the joiner recomputed under its own budget"
        );
        let healthy = run_cached(&BatchExecutor::new(2), &cached, &batch);
        for (slot, exp) in healthy.results.iter().zip(&expected) {
            assert_eq!(
                slot.as_ref().unwrap().edges(),
                exp.as_ref().unwrap().edges()
            );
        }

        failpoints::clear_all();
    }
}

mod dynamic {
    use spg_core::failpoints::{self, sites};
    use spg_core::paper_example::{self, names::*};
    use spg_core::{apply_delta_scoped, CachedEve, Query, SpgCache};
    use spg_graph::{EdgeDelta, VersionedGraph};

    /// A purge that fails after the graph mutated must not leave stale
    /// entries reachable.
    #[test]
    fn a_failed_purge_restamps_instead_of_serving_stale_answers() {
        use spg_core::cache::CacheOutcome;
        use spg_core::failpoints::FailAction;
        use spg_core::workspace::QueryWorkspace;

        let _guard = failpoints::serial_guard();
        failpoints::clear_all();
        let mut vg = VersionedGraph::new(paper_example::figure1_graph());
        let cache = SpgCache::new(1 << 20);
        let q = Query::new(S, T, 4);
        CachedEve::with_defaults(&vg, &cache).query(q).unwrap();

        for (action, edge) in [
            (FailAction::Panic, EdgeDelta::remove(C, T)),
            (FailAction::Budget, EdgeDelta::add(C, T)),
        ] {
            let before = vg.version();
            failpoints::set(sites::UPDATE_PURGE, action, Some(1));
            // (C, T) lies inside the cached entry's search space.
            let up = apply_delta_scoped(&mut vg, &cache, &[edge]).unwrap();
            assert_eq!(up.delta.applied, 1, "{action:?}: the delta stays applied");
            assert_eq!(up.purged, 0);
            assert_ne!(vg.version(), before, "{action:?}: the graph is restamped");
            assert_eq!(vg.retired().last(), Some(&before));

            let cached = CachedEve::with_defaults(&vg, &cache); // reclaims the orphans
            let (requery, outcome) = cached
                .query_with_outcome(&mut QueryWorkspace::new(), q)
                .unwrap();
            assert_eq!(outcome, CacheOutcome::Miss, "{action:?}");
            let reference = spg_core::Eve::with_defaults(vg.graph()).query(q).unwrap();
            assert_eq!(requery.edges(), reference.edges(), "{action:?}");
        }
        assert_eq!(
            cache.stats().purged_stale,
            2,
            "each bind reclaimed an orphan"
        );

        // Disarmed: the next update purges normally and keeps the version.
        let version = vg.version();
        let up = apply_delta_scoped(&mut vg, &cache, &[EdgeDelta::remove(C, T)]).unwrap();
        assert_eq!(up.purged, 1);
        assert_eq!(vg.version(), version);
        failpoints::clear_all();
    }
}
