//! End-to-end integration: every PolyBench kernel, compiled host-only and
//! with Loop Tactics, executed on the full simulated platform, validated
//! bit-for-bit against the pure-Rust references.

use polybench::{init_fn, reference_outputs, source, Dataset, Kernel};
use tdo_cim::{compile, execute, CompileOptions, ExecOptions};

fn run_kernel(kernel: Kernel, dataset: Dataset, opts: &CompileOptions) -> tdo_cim::RunResult {
    let src = source(kernel, dataset);
    let compiled = compile(&src, opts).expect("compiles");
    let init = init_fn(kernel);
    execute(&compiled, &ExecOptions::default(), &init).expect("runs")
}

#[test]
fn all_kernels_match_reference_on_host() {
    for kernel in Kernel::ALL_EXTENDED {
        let r = run_kernel(kernel, Dataset::Mini, &CompileOptions::host_only());
        for (name, expect) in reference_outputs(kernel, Dataset::Mini) {
            let got = r.array(&name).unwrap_or_else(|| panic!("{}: no {name}", kernel.name()));
            assert_eq!(got, expect.as_slice(), "{}::{name} (host)", kernel.name());
        }
    }
}

#[test]
fn all_kernels_match_reference_with_cim_offload() {
    for kernel in Kernel::ALL_EXTENDED {
        let r = run_kernel(kernel, Dataset::Mini, &CompileOptions::with_tactics());
        assert!(r.accel.is_some(), "{} was not offloaded", kernel.name());
        for (name, expect) in reference_outputs(kernel, Dataset::Mini) {
            let got = r.array(&name).unwrap_or_else(|| panic!("{}: no {name}", kernel.name()));
            assert_eq!(got, expect.as_slice(), "{}::{name} (host+cim)", kernel.name());
        }
    }
}

#[test]
fn every_kernel_is_detected_and_offloaded() {
    // The transparency claim: all seven benchmarks offload with zero
    // user annotations.
    for kernel in Kernel::ALL_EXTENDED {
        let src = source(kernel, Dataset::Mini);
        let compiled = compile(&src, &CompileOptions::with_tactics()).expect("compiles");
        let report = compiled.report.expect("tactics ran");
        assert!(report.any_offloaded(), "{}: {report}", kernel.name());
        let expected_kernels = match kernel {
            Kernel::Gemm | Kernel::Conv => 1,
            Kernel::TwoMm | Kernel::ThreeMm => match kernel {
                Kernel::TwoMm => 2,
                _ => 3,
            },
            Kernel::Gesummv | Kernel::Bicg | Kernel::Mvt | Kernel::Atax => 2,
        };
        assert_eq!(
            report.kernels.iter().filter(|k| k.offloaded).count(),
            expected_kernels,
            "{}: {report}",
            kernel.name()
        );
    }
}

#[test]
fn gemv_like_kernels_emit_gemv_calls_gemm_like_emit_gemm() {
    for kernel in Kernel::ALL {
        let src = source(kernel, Dataset::Mini);
        let compiled = compile(&src, &CompileOptions::with_tactics()).expect("compiles");
        let text = compiled.pseudo_c();
        match kernel {
            Kernel::Conv => assert!(text.contains("polly_cimConv2d"), "{text}"),
            Kernel::Gesummv | Kernel::Bicg | Kernel::Mvt | Kernel::Atax => {
                assert!(text.contains("polly_cimBlasSGemv"), "{}: {text}", kernel.name())
            }
            _ => assert!(
                text.contains("polly_cimBlasSGemm") || text.contains("polly_cimBlasGemmBatched"),
                "{}: {text}",
                kernel.name()
            ),
        }
        assert!(text.contains("polly_cimInit(0);"));
    }
}

#[test]
fn threemm_fuses_its_independent_pair() {
    // E = A*B and F = C*D are independent and same-shape: the fusion pass
    // must batch them; G = E*F depends on both and must stay separate.
    let src = source(Kernel::ThreeMm, Dataset::Mini);
    let compiled = compile(&src, &CompileOptions::with_tactics()).expect("compiles");
    let report = compiled.report.as_ref().expect("tactics ran");
    assert_eq!(report.fused_groups, 1, "{report}");
    let text = compiled.pseudo_c();
    assert!(text.contains("polly_cimBlasGemmBatched"));
    assert!(text.contains("polly_cimBlasSGemm("), "G must be a separate call: {text}");
}

#[test]
fn gemm_like_wins_gemv_like_loses_on_energy() {
    // The headline shape of Fig. 6 at small scale: gemm improves with
    // offloading, mvt regresses (write-dominated, spin-wait overhead).
    let gemm_host = run_kernel(Kernel::Gemm, Dataset::Small, &CompileOptions::host_only());
    let gemm_cim = run_kernel(Kernel::Gemm, Dataset::Small, &CompileOptions::with_tactics());
    let gemm_gain = gemm_host.total_energy() / gemm_cim.total_energy();
    assert!(gemm_gain > 2.0, "gemm energy gain {gemm_gain}");

    let mvt_host = run_kernel(Kernel::Mvt, Dataset::Small, &CompileOptions::host_only());
    let mvt_cim = run_kernel(Kernel::Mvt, Dataset::Small, &CompileOptions::with_tactics());
    let mvt_gain = mvt_host.total_energy() / mvt_cim.total_energy();
    assert!(mvt_gain < 1.0, "mvt energy gain {mvt_gain} should be a loss");
}

#[test]
fn compute_intensity_separates_the_classes() {
    // MACs per CIM write (Fig. 6 left, right axis): GEMM-like kernels sit
    // far above GEMV-like ones.
    let gemm = run_kernel(Kernel::Gemm, Dataset::Small, &CompileOptions::with_tactics());
    let mvt = run_kernel(Kernel::Mvt, Dataset::Small, &CompileOptions::with_tactics());
    let (g, m) = (gemm.macs_per_write(), mvt.macs_per_write());
    assert!(g > 10.0 * m, "gemm {g} vs mvt {m}");
    assert!(m <= 1.5, "mvt intensity {m} must be ~1");
}

/// A convolution whose 3-wide filter does not fit the default 256-row
/// tiles: a 128-row filter leaves 2 word lines per image row.
const UNFIT_CONV: &str = r#"
    float img[130][10]; float f[128][3]; float out[3][8];
    void kernel() {
      for (int i = 0; i < 3; i++)
        for (int j = 0; j < 8; j++)
          for (int r = 0; r < 128; r++)
            for (int s = 0; s < 3; s++)
              out[i][j] += f[r][s] * img[i + r][j + s];
    }
"#;

#[test]
fn unfit_conv_runs_on_the_host() {
    let init = |name: &str, data: &mut [f32]| {
        for (i, v) in data.iter_mut().enumerate() {
            *v = ((i * 7 + name.len()) % 11) as f32 * 0.25 - 1.25;
        }
    };
    let host = compile(UNFIT_CONV, &CompileOptions::host_only()).expect("compiles");
    let cim = compile(UNFIT_CONV, &CompileOptions::with_tactics()).expect("compiles");
    let report = cim.report.as_ref().expect("tactics ran");
    assert_eq!(report.kernels.len(), 1, "the conv is matched: {report}");
    assert!(!report.any_offloaded(), "{report}");
    assert!(report.kernels[0].reason.contains("Toeplitz"), "{report}");
    let want = execute(&host, &ExecOptions::default(), &init).expect("host run");
    let got = execute(&cim, &ExecOptions::default(), &init).expect("offload build runs");
    let bits = |r: &tdo_cim::RunResult| -> Vec<u32> {
        r.array("out").expect("out").iter().map(|v| v.to_bits()).collect()
    };
    assert_eq!(bits(&got), bits(&want), "out differs from the host-only run");
}

#[test]
fn selective_compile_of_unfit_conv_returns() {
    let mut opts = CompileOptions::with_tactics();
    opts.tactics.policy = tdo_tactics::OffloadPolicy::Selective;
    let compiled = compile(UNFIT_CONV, &opts).expect("compiles");
    assert!(!compiled.offloaded());
}
