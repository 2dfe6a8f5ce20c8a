//! The engine's pooled fault-simulation sweeps and the pool's nesting
//! rule.
//!
//! Every fault-list sweep of `FaultSimulator` cuts the list into
//! `SWEEP_CHUNK`-fault chunks that the workers of one `WorkerPool`
//! claim. On a generated s5378 core (about 9.5k collapsed faults: 19
//! chunks, the last one ragged) the results must not depend on the
//! worker count, a tripped budget must stay sound on the pool, and a
//! pool map called from a pool worker must run there without spawning.

use std::sync::Arc;
use std::thread::ThreadId;
use std::time::Instant;

use modsoc::analysis::WorkerPool;
use modsoc::atpg::collapse::collapse_faults;
use modsoc::atpg::fault::Fault;
use modsoc::atpg::fault_sim::{active_mask, FaultSimulator, SWEEP_CHUNK};
use modsoc::atpg::{Atpg, AtpgOptions, ExhaustReason, RunBudget};
use modsoc::circuitgen::generate;
use modsoc::circuitgen::profile::iscas;
use modsoc::metrics::{Counter, MetricsSink, NullSink, RecordingSink};
use modsoc::netlist::Circuit;

/// The combinational test model of a generated s5378 core and its
/// collapsed fault list.
fn s5378() -> (Circuit, Vec<Fault>) {
    let core = generate(&iscas::s5378(1)).expect("s5378 generates");
    let circuit = core.to_test_model().expect("scan model").circuit;
    let faults = collapse_faults(&circuit).representatives().to_vec();
    (circuit, faults)
}

/// Deterministic patterns of mixed density (an xorshift stream).
fn patterns(inputs: usize, count: usize) -> Vec<Vec<bool>> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    (0..count)
        .map(|_| {
            (0..inputs)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state.is_multiple_of(3)
                })
                .collect()
        })
        .collect()
}

#[test]
fn sweeps_are_jobs_invariant_across_many_chunks() {
    let (circuit, faults) = s5378();
    let chunks = faults.len().div_ceil(SWEEP_CHUNK);
    assert!(
        chunks >= 16,
        "{} faults make only {chunks} chunks",
        faults.len()
    );
    assert_ne!(faults.len() % SWEEP_CHUNK, 0, "the last chunk is ragged");
    // 600 patterns: two blocks on the wide kernel, the second one ragged.
    let wide = patterns(circuit.input_count(), 600);
    let batch = &wide[..64];
    let run = |jobs: usize| {
        let sink = RecordingSink::new();
        let mut fsim = FaultSimulator::new(&circuit).expect("fsim");
        let detected = fsim
            .detected(&wide, &faults, jobs, &sink)
            .expect("detected");
        let counts = fsim
            .detection_counts(&wide, &faults, jobs, &sink)
            .expect("counts");
        let (masks, reason) = fsim
            .detection_masks_budgeted(batch, &faults, &RunBudget::unlimited(), jobs, &sink)
            .expect("masks");
        assert_eq!(reason, None, "jobs={jobs}: an open budget never trips");
        let snap = sink.snapshot();
        assert_eq!(snap.counter(Counter::PoolTasks), 0, "chunks are not tasks");
        // One row per spawned worker and sweep; the sequential path has none.
        let rows = if jobs == 1 { 0 } else { 3 * jobs.min(chunks) };
        assert_eq!(snap.workers.len(), rows, "jobs={jobs}");
        (detected, counts, masks)
    };
    let serial = run(1);
    assert!(serial.0.iter().any(|&d| d) && serial.0.iter().any(|&d| !d));
    for jobs in [2, 3, 8] {
        assert_eq!(run(jobs), serial, "jobs={jobs}");
    }
}

#[test]
fn engine_run_is_jobs_invariant_with_every_counter() {
    let core = generate(&iscas::s5378(1)).expect("s5378 generates");
    let run = |jobs: usize| {
        let sink = Arc::new(RecordingSink::new());
        let options = AtpgOptions {
            jobs,
            ..AtpgOptions::default()
        };
        let result = Atpg::with_sink(options, Arc::clone(&sink) as Arc<dyn MetricsSink>)
            .run(&core)
            .expect("atpg");
        let snap = sink.snapshot();
        let spawned = !snap.workers.is_empty();
        (
            (
                result.patterns,
                result.fault_statuses,
                result.stats,
                snap.counters,
            ),
            spawned,
        )
    };
    let (serial, serial_spawned) = run(1);
    let (pooled, pooled_spawned) = run(3);
    assert!(
        !serial_spawned,
        "jobs 1 sweeps on the engine's own simulator"
    );
    assert!(pooled_spawned, "jobs 3 shards the big sweeps");
    assert_eq!(pooled.0, serial.0, "patterns");
    assert_eq!(pooled.1, serial.1, "fault statuses");
    assert_eq!(pooled.2, serial.2, "stats");
    assert_eq!(pooled.3, serial.3, "counters");
}

#[test]
fn budget_trips_stay_sound_on_the_pool() {
    let (circuit, faults) = s5378();
    let batch = patterns(circuit.input_count(), 37);
    let active = active_mask(batch.len());
    let mut fsim = FaultSimulator::new(&circuit).expect("fsim");
    let full = fsim.detection_masks(&batch, &faults).expect("masks");
    assert!(full.iter().any(|&m| m != 0));

    // Cancelled before the sweep: no chunk is simulated.
    let cancelled = RunBudget::unlimited();
    cancelled.cancel();
    let (masks, reason) = fsim
        .detection_masks_budgeted(&batch, &faults, &cancelled, 4, &NullSink)
        .expect("masks");
    assert_eq!(reason, Some(ExhaustReason::Cancelled));
    assert_eq!(masks.len(), faults.len());
    assert!(
        masks.iter().all(|&m| m == 0),
        "a pre-cancelled sweep is all zeros"
    );

    // Tripped while the workers sweep: a ragged prefix of chunks is
    // simulated, the rest reads as undetected. The trip is a deadline,
    // which each sweeping worker polls itself before every chunk (the
    // same check that polls the cancel flag), so it lands when the clock
    // passes it and never late, however the workers are scheduled. Each
    // list is swept untripped first, and its deadlines are fractions of
    // that sweep's time.
    let mut tripped_mid_sweep = false;
    'lists: for repeat in [4, 16, 64] {
        let many: Vec<Fault> = faults
            .iter()
            .cycle()
            .take(faults.len() * repeat)
            .copied()
            .collect();
        let start = Instant::now();
        let (untripped, reason) = fsim
            .detection_masks_budgeted(&batch, &many, &RunBudget::unlimited(), 4, &NullSink)
            .expect("masks");
        let sweep = start.elapsed();
        assert_eq!(reason, None);
        for (k, &m) in untripped.iter().enumerate() {
            assert_eq!(m, full[k % faults.len()], "fault {k}: an untripped sweep");
        }
        for fraction in [2, 4, 8] {
            let budget = RunBudget::unlimited().with_deadline(Instant::now() + sweep / fraction);
            let (masks, reason) = fsim
                .detection_masks_budgeted(&batch, &many, &budget, 4, &NullSink)
                .expect("masks");
            assert_eq!(masks.len(), many.len());
            for (k, &m) in masks.iter().enumerate() {
                assert_eq!(m & !active, 0, "fault {k}: a slot past the batch");
                assert_eq!(
                    m & !full[k % faults.len()],
                    0,
                    "fault {k}: an invented detection"
                );
            }
            let simulated = masks.iter().any(|&m| m != 0);
            let complete = masks
                .iter()
                .enumerate()
                .all(|(k, &m)| m == full[k % faults.len()]);
            if reason.is_some() {
                assert_eq!(reason, Some(ExhaustReason::Deadline));
                if simulated && !complete {
                    tripped_mid_sweep = true;
                    break 'lists;
                }
            } else {
                assert!(complete, "an untripped sweep is the full result");
            }
        }
    }
    assert!(tripped_mid_sweep, "no deadline landed mid-sweep");
}

#[test]
fn a_pool_map_on_a_pool_worker_runs_there_without_spawning() {
    let items: Vec<u32> = (0..10).collect();
    let expected: Vec<u32> = items.iter().map(|x| x + 1).collect();
    // Rows recorded and threads used by one inner map of 4 workers.
    let inner = |items: &[u32]| -> (usize, Vec<ThreadId>) {
        let sink = RecordingSink::new();
        let out = WorkerPool::new(4)
            .map_with_sink(items, &sink, |_, &x| (x + 1, std::thread::current().id()));
        let (values, threads): (Vec<u32>, Vec<ThreadId>) = out.into_iter().unzip();
        assert_eq!(values, expected[..items.len()]);
        let snap = sink.snapshot();
        assert_eq!(snap.counter(Counter::PoolTasks), items.len() as u64);
        (snap.workers.len(), threads)
    };

    let nested = WorkerPool::new(2).map_indices(2, |_| {
        let (rows, threads) = inner(&items);
        let here = std::thread::current().id();
        (rows, threads.iter().all(|&t| t == here))
    });
    assert_eq!(
        nested,
        vec![(1, true), (1, true)],
        "one row, on the outer worker"
    );

    for n in [10, 3] {
        let (rows, _) = inner(&items[..n]);
        assert_eq!(rows, 4.min(n), "{n} items from the main thread");
    }
}
