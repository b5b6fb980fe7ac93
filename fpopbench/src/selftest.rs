//! Self-checks of the benchmark: short runs of every workload must fail
//! on a corrupted known answer and on an accepted false lemma, and a seed
//! must always name the same operation sequence.

use std::sync::Mutex;

use crate::expect::Expected;
use crate::report::Report;
use crate::{run, Opts, WORKLOADS};

/// Workload runs share process-wide state (the metrics registry, the span
/// ring), so the self-tests run them one at a time.
static SERIAL: Mutex<()> = Mutex::new(());

fn short_run(workload: &str, exp: &Expected, tag: &str) -> Report {
    let _guard = SERIAL.lock().unwrap_or_else(|p| p.into_inner());
    let o = Opts {
        seed: 5,
        seconds: 0.3,
        trace: false,
        work: std::path::PathBuf::from(".bench_work")
            .join(format!("selftest-{tag}-{workload}-{}", std::process::id())),
    };
    run(workload, &o, exp).expect("workload runs")
}

#[test]
fn every_workload_passes_with_the_true_answers() {
    let exp = Expected::load().unwrap();
    for w in WORKLOADS {
        let rep = short_run(w, &exp, "clean");
        assert!(rep.correct(), "{w}: {:?}", rep.problems);
        assert_eq!(rep.failed, 0, "{w}: {:?}", rep.problems);
        assert!(rep.attempted > 0, "{w}");
    }
}

#[test]
fn a_corrupted_expected_answer_fails_every_workload() {
    let mut exp = Expected::load().unwrap();
    // The lattice workloads check the variant set; the serving workloads
    // compute every answer from the flip rules.
    exp.variants[7] = "STLCFixSumBogus".to_string();
    exp.flip[0].2 = "n_zero".to_string();
    for w in WORKLOADS {
        let rep = short_run(w, &exp, "corrupt");
        assert!(
            !rep.correct(),
            "{w} passed with a corrupted expected answer"
        );
        assert!(rep.wrong > 0 && rep.failed >= rep.wrong, "{w}");
    }
}

#[test]
fn an_accepted_false_lemma_fails_the_serving_workloads() {
    let mut exp = Expected::load().unwrap();
    exp.false_lemmas_hold = true;
    for w in ["serve_direct", "serve_fleet"] {
        let rep = short_run(w, &exp, "falselemma");
        assert!(
            !rep.correct(),
            "{w} passed although the engine accepted a 'false' lemma"
        );
        assert!(
            rep.problems
                .iter()
                .any(|p| p.contains("expected Error(Failed)")),
            "{w}: {:?}",
            rep.problems
        );
    }
}

#[test]
fn a_seed_names_one_operation_sequence() {
    use crate::lattice::Touches;
    use crate::mix::{MixGen, Programs};
    use crate::util::Rng;
    let exp = Expected::load().unwrap();
    // edit_loop: the (variant, field) touches.
    let touches = |seed| Touches::new(&exp, Rng::new(seed).fork(2)).take(50);
    assert_eq!(touches(3), touches(3));
    assert_ne!(touches(3), touches(4));
    // serve_*: programs, frames and the open-loop schedule.
    let stream = |seed| {
        let progs = Programs::generate(&exp, seed, 2);
        let mut gen = MixGen::new(&exp, &progs, seed, 0);
        let mut gaps = Rng::new(seed).fork(7);
        (1..=200)
            .map(|i| (gen.next(i).frame, gaps.exp(1.0).to_bits()))
            .collect::<Vec<_>>()
    };
    assert_eq!(stream(3), stream(3));
    assert_ne!(stream(3), stream(4));
    // cold_lattice has one input, the whole extended lattice; its seed
    // only orders the feature list, which the engine normalizes.
    let feats = |seed| crate::lattice::seeded_features(&mut Rng::new(seed));
    assert_eq!(feats(3), feats(3));
}

#[test]
fn per_layer_catalog_matches_benchmark_json() {
    let json: String = include_str!("../../BENCHMARK.json")
        .split_whitespace()
        .collect();
    for (name, unit) in crate::report::PER_LAYER {
        let entry = format!("{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\"");
        assert!(
            json.contains(&entry),
            "BENCHMARK.json lacks per-layer {name} [{unit}]"
        );
    }
    assert_eq!(
        json.matches("\"better\"").count(),
        crate::report::PER_LAYER.len() + 5,
        "BENCHMARK.json lists metrics the benchmark does not emit"
    );
}
