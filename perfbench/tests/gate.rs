//! The benchmark's own gate at toy sizes: corrupted outputs must count as
//! failed instances and every metric must print with its unit.

use treelocal_perfbench::report::{Report, END_TO_END, PER_LAYER};
use treelocal_perfbench::workloads::{Fault, Sizes, Workload};
use treelocal_perfbench::{run, RunOpts};

const TREES: [Workload; 3] = [Workload::MisTree, Workload::EdgecolTree, Workload::Certify];

fn toy(workload: Workload, fault: Fault, trace: bool) -> Report {
    run(&RunOpts {
        workload,
        seed: 7,
        seconds: 0.0,
        trace,
        sizes: Sizes::TOY,
        min_instances: 2,
        fault,
    })
}

fn failed_frac(r: &Report) -> f64 {
    1.0 - r.metric("ok_frac").expect("ok_frac is an end-to-end metric")
}

#[test]
fn clean_runs_pass_the_gate_with_nonzero_metrics() {
    for w in TREES {
        let r = toy(w, Fault::None, false);
        assert!(r.correct, "{}: {:?}", w.name(), r.errors);
        assert_eq!((r.attempted, r.failed), (2, 0));
        for (name, value, _) in &r.metrics {
            assert!(*value > 0.0, "{}: {name} = {value}", w.name());
        }
    }
}

#[test]
fn a_flipped_label_fails_every_instance() {
    for w in TREES {
        let r = toy(w, Fault::FlipLabel, false);
        assert!(!r.correct, "{}", w.name());
        assert_eq!(r.failed, r.attempted, "{}", w.name());
        assert_eq!(failed_frac(&r), 1.0, "{}", w.name());
    }
}

#[test]
fn a_flipped_holds_cell_fails_the_quick_suite() {
    let r = run(&RunOpts {
        workload: Workload::SuiteQuick,
        seed: 1,
        seconds: 0.0,
        trace: false,
        sizes: Sizes::TOY,
        min_instances: 1,
        fault: Fault::FlipLabel,
    });
    assert!(!r.correct);
    assert!(failed_frac(&r) > 0.0);
    assert!(r.errors.iter().any(|e| e.contains("broken bound")), "{:?}", r.errors);
}

#[test]
fn a_corrupted_certificate_is_rejected() {
    let r = toy(Workload::Certify, Fault::CorruptCertificate, false);
    assert!(!r.correct);
    assert!(failed_frac(&r) > 0.0);
    assert!(r.errors.iter().all(|e| e.contains("certificate rejected")), "{:?}", r.errors);
}

#[test]
fn a_panic_is_counted_instead_of_aborting_the_run() {
    let r = toy(Workload::MisTree, Fault::Panic, false);
    assert_eq!((r.attempted, r.failed), (2, 2));
    assert!(r.errors.iter().all(|e| e.contains("panicked")), "{:?}", r.errors);
}

#[test]
fn every_metric_prints_with_its_unit_and_matches_benchmark_json() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
        let json = toy(Workload::MisTree, Fault::None, trace).to_json();
        assert_eq!(json.matches("\"unit\": ").count(), table.len());
        for (name, unit) in table {
            assert!(!unit.is_empty());
            assert!(json.contains(&format!("\"{name}\": {{\"value\": ")), "{name} missing");
            assert!(json.contains(&format!("\"unit\": \"{unit}\"")), "{name} without {unit}");
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", ");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
    let declared = spec.matches("\"unit\": ").count();
    assert_eq!(
        declared,
        END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json declares extra metrics"
    );
    for w in Workload::ALL {
        assert!(spec.contains(&format!("{{\"name\": \"{}\", \"why\": ", w.name())));
    }
}
