//! End-to-end integration: the full study pipeline across every crate.

use perfport::core::{
    efficiency_table, efficiency_table_with, figure_specs, render_csv, render_figure,
    render_table3, run_experiment, Experiment, HostBaseline, StudyConfig,
};
use perfport::machines::Precision;
use perfport::models::{Arch, ModelFamily, ProgModel};

fn quick() -> StudyConfig {
    StudyConfig::quick()
}

#[test]
fn all_eleven_figure_panels_regenerate() {
    let cfg = quick();
    for spec in figure_specs() {
        let rows = spec.run(&cfg);
        assert_eq!(rows.len(), spec.models.len(), "{}", spec.id);
        // Every curve either produced data or is a documented
        // unsupported combination.
        for (model, result) in &rows {
            match result {
                Ok(r) => {
                    assert!(!r.points.is_empty(), "{}: {model} has no points", spec.id);
                    assert!(
                        r.points
                            .iter()
                            .all(|p| p.gflops.is_finite() && p.gflops > 0.0),
                        "{}: {model} produced non-finite throughput",
                        spec.id
                    );
                }
                Err(e) => {
                    assert!(
                        e.to_string().contains("unsupported"),
                        "{}: {model} failed for a non-support reason: {e}",
                        spec.id
                    );
                }
            }
        }
        // Rendering never panics and includes the title.
        let text = render_figure(spec.title, &rows);
        assert!(text.contains(spec.title));
        let csv = render_csv(&rows);
        assert!(csv.starts_with("n,"));
    }
}

#[test]
fn table_iii_regenerates_with_paper_shape() {
    let cfg = quick();
    // The paper's §V claims are about its naive-vs-naive framing; pin
    // them under that baseline explicitly. The default measured
    // baseline scales FP64 GPU rows down harder than FP32 (the tiled
    // kernel's FP64 headroom is larger), which legitimately inverts the
    // precision ordering.
    let d = efficiency_table_with(Precision::Double, &cfg, HostBaseline::NaiveModel);
    let s = efficiency_table_with(Precision::Single, &cfg, HostBaseline::NaiveModel);

    // The paper's headline orderings.
    for r in [&d, &s] {
        assert!(r.phi(ModelFamily::Julia) > r.phi(ModelFamily::Kokkos));
        assert!(r.phi(ModelFamily::Kokkos) > r.phi(ModelFamily::PythonNumba));
    }
    // "the portability of all models is slightly lower for
    // single-precision" (§V).
    for f in ModelFamily::ALL {
        assert!(
            s.phi(f) < d.phi(f) + 0.02,
            "{f}: FP32 phi {} should not exceed FP64 phi {}",
            s.phi(f),
            d.phi(f)
        );
    }
    // The default measured baseline still regenerates and preserves the
    // cross-model ordering.
    let dm = efficiency_table(Precision::Double, &cfg);
    assert!(dm.phi(ModelFamily::Julia) > dm.phi(ModelFamily::Kokkos));
    assert!(dm.phi(ModelFamily::Kokkos) > dm.phi(ModelFamily::PythonNumba));
    let rendered = render_table3(&[d, s]);
    assert!(rendered.contains("Phi_M"));
}

#[test]
fn every_experiment_is_deterministic_end_to_end() {
    let exp = Experiment::new(
        Arch::Mi250x,
        ProgModel::JuliaAmdGpu,
        Precision::Single,
        vec![4096, 8192],
    );
    let a = run_experiment(&exp).unwrap();
    let b = run_experiment(&exp).unwrap();
    assert_eq!(a.points.len(), b.points.len());
    for (x, y) in a.points.iter().zip(&b.points) {
        assert_eq!(x.gflops.to_bits(), y.gflops.to_bits(), "non-deterministic");
    }
    assert_eq!(a.verification_rel_err, b.verification_rel_err);

    // Tracing is observation-only: rerunning with a collector installed
    // must not perturb a single bit of the results. (Other tests in this
    // binary may record into the session concurrently; that is fine —
    // the assertion is about the experiment's outputs, not the events.)
    let session = perfport::trace::TraceSession::start();
    let traced = run_experiment(&exp).unwrap();
    let events = session.finish();
    for (x, y) in a.points.iter().zip(&traced.points) {
        assert_eq!(
            x.gflops.to_bits(),
            y.gflops.to_bits(),
            "tracing perturbed the modelled results"
        );
    }
    assert_eq!(a.verification_rel_err, traced.verification_rel_err);
    // The traced run recorded the expected span structure.
    use perfport::trace::EventKind;
    let experiment_spans = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanEnd && e.cat == "runner" && e.name == "experiment")
        .count();
    assert!(experiment_spans >= 1, "no runner:experiment span recorded");
    let size_points = events
        .iter()
        .filter(|e| e.kind == EventKind::SpanEnd && e.cat == "runner" && e.name == "size_point")
        .count();
    assert!(
        size_points >= exp.sizes.len(),
        "expected at least {} size_point spans, got {size_points}",
        exp.sizes.len()
    );
}

#[test]
fn unsupported_combinations_are_exactly_the_papers() {
    let cfg = quick();
    let mut unsupported = Vec::new();
    for arch in Arch::ALL {
        for model in ProgModel::candidates(arch) {
            for precision in Precision::ALL {
                let mut e = Experiment::new(arch, model, precision, cfg.sizes_for(arch).to_vec());
                e.reps = 1;
                if run_experiment(&e).is_err() {
                    unsupported.push((arch, model, precision));
                }
            }
        }
    }
    // Numba on MI250X (3 precisions) + FP16 for C/Kokkos vendor stacks.
    assert!(unsupported.contains(&(Arch::Mi250x, ProgModel::NumbaCuda, Precision::Double)));
    assert!(unsupported.contains(&(Arch::A100, ProgModel::Cuda, Precision::Half)));
    assert!(unsupported.contains(&(Arch::Mi250x, ProgModel::KokkosHip, Precision::Half)));
    assert!(unsupported.contains(&(Arch::Epyc7A53, ProgModel::COpenMp, Precision::Half)));
    // And nothing in double/single is unsupported except Numba-on-AMD.
    for (arch, model, p) in &unsupported {
        if *p != Precision::Half {
            assert_eq!(*model, ProgModel::NumbaCuda);
            assert_eq!(*arch, Arch::Mi250x);
        }
    }
}

#[test]
fn warmup_exclusion_reports_jit_costs() {
    let julia = run_experiment(&Experiment::new(
        Arch::A100,
        ProgModel::JuliaCudaJl,
        Precision::Double,
        vec![4096],
    ))
    .unwrap();
    let cuda = run_experiment(&Experiment::new(
        Arch::A100,
        ProgModel::Cuda,
        Precision::Double,
        vec![4096],
    ))
    .unwrap();
    assert!(julia.warmup_excluded_s > 3.0, "Julia JIT warm-up missing");
    assert!(cuda.warmup_excluded_s < 1.0, "CUDA has no JIT");
}
