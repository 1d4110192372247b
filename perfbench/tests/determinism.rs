//! Determinism pins at toy sizes: the traced replay reproduces the untraced
//! run, and every count repeats across runs of one seed.
//!
//! The simulator counters are process-wide, so this file holds a single
//! test: no other test thread may step the engine while it runs.

use treelocal_perfbench::report::Report;
use treelocal_perfbench::workloads::{Fault, Sizes, Workload};
use treelocal_perfbench::{run, RunOpts};

fn toy(workload: Workload, trace: bool) -> Report {
    run(&RunOpts {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        sizes: Sizes::TOY,
        min_instances: 3,
        fault: Fault::None,
    })
}

#[test]
fn traced_replays_reproduce_the_untraced_runs_and_counts_repeat() {
    for w in Workload::ALL {
        let a = toy(w, true);
        let b = toy(w, true);
        assert!(a.correct && b.correct, "{}: {:?} {:?}", w.name(), a.errors, b.errors);
        for ((name, x, unit), (_, y, _)) in a.metrics.iter().zip(&b.metrics) {
            if *unit != "s" && *unit != "%" && *unit != "1/s" {
                assert_eq!(x, y, "{}: count {name} differs between runs of one seed", w.name());
            }
        }
        let untraced = toy(w, false);
        assert!(untraced.metric("local_rounds").is_some_and(|r| r > 0.0));
        assert_eq!(untraced.metric("local_rounds"), toy(w, false).metric("local_rounds"));
    }
}
