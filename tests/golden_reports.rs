//! Golden snapshots of whole optimization `Report`s.
//!
//! Each case runs the full exploration driver on a tiny model and renders
//! every deterministic `Report` field — f64s by their exact bit patterns,
//! the winning configuration by `ExecConfig::summary` — into a fixture
//! that must match byte-for-byte. Refactors of the driver (phase loops,
//! commit order, counter bookkeeping) must leave these files untouched;
//! deliberate behavior changes regenerate them with
//!
//! ```text
//! ASTRA_REGEN_GOLDEN=1 cargo test --test golden_reports
//! ```
//!
//! and the updated files under `tests/golden/reports/` are reviewed like
//! code. The cases cover every phase (fusion, kernels, streams, the
//! allocation fork, multi-device placement), the fault retry / outlier /
//! quarantine paths, the predictor on and off, and bound pruning.

use std::fmt::Write as _;

use astra::core::{Astra, AstraOptions, Dims, Report};
use astra::gpu::{DeviceSpec, FaultPlan, LinkDesc, Topology};
use astra::models::Model;

fn tiny(model: Model) -> astra::models::BuiltModel {
    let mut c = model.default_config(8);
    c.hidden = 64;
    c.input = 64;
    c.vocab = 128;
    c.seq_len = 3;
    c.layers = c.layers.min(2);
    model.build(&c)
}

fn bits(v: f64) -> String {
    format!("{:016x} ({v})", v.to_bits())
}

/// Every deterministic field of `r`, one per line.
fn render(r: &Report) -> String {
    let mut s = String::new();
    let mut line = |k: &str, v: String| {
        let _ = writeln!(s, "{k} = {v}");
    };
    line("native_ns", bits(r.native_ns));
    line("steady_ns", bits(r.steady_ns));
    line("configs_explored", r.configs_explored.to_string());
    line("exploration_ns", bits(r.exploration_ns));
    line("profiling_overhead_frac", bits(r.profiling_overhead_frac));
    line("best", r.best.summary());
    line("strategies_explored", r.strategies_explored.to_string());
    line("fusion_sets", r.fusion_sets.to_string());
    line("super_epochs", r.super_epochs.to_string());
    line("plan_cache_hits", r.plan_cache_hits.to_string());
    line("plan_cache_misses", r.plan_cache_misses.to_string());
    line("fault_events", r.fault_events.to_string());
    line("retries", r.retries.to_string());
    line("quarantined", r.quarantined.to_string());
    line("plans_verified", r.plans_verified.to_string());
    line("verify_rejects", r.verify_rejects.to_string());
    line("lint_rejects", r.lint_rejects.to_string());
    line("bound_pruned", r.bound_pruned.to_string());
    line("sim_cache_hits", r.sim_cache_hits.to_string());
    line("sim_cache_misses", r.sim_cache_misses.to_string());
    line("resumed_fraction", bits(r.resumed_fraction));
    line("sim_cache_hit_depth", format!("{:?}", r.sim_cache_hit_depth));
    line("prefix_group_count", r.prefix_group_count.to_string());
    line(
        "device_utilization",
        r.device_utilization.iter().map(|&u| bits(u)).collect::<Vec<_>>().join(", "),
    );
    line("cost_per_throughput", bits(r.cost_per_throughput));
    line("placements_explored", r.placements_explored.to_string());
    line("trials_pruned", r.trials_pruned.to_string());
    line("predictor_updates", r.predictor_updates.to_string());
    line("predicted_vs_measured_mae", bits(r.predicted_vs_measured_mae));
    line("warm_start", r.warm_start.to_string());
    line("store_loaded_keys", r.store_loaded_keys.to_string());
    line("store_corrupt_records", r.store_corrupt_records.to_string());
    line("store_journal_appends", r.store_journal_appends.to_string());
    line("store_compactions", r.store_compactions.to_string());
    s
}

fn check(fixture: &str, r: &Report) {
    let got = render(r);
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/reports")
        .join(fixture);
    if std::env::var_os("ASTRA_REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden/reports");
        std::fs::write(&path, &got).expect("write fixture");
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing fixture {} ({e}); regenerate with \
             ASTRA_REGEN_GOLDEN=1 cargo test --test golden_reports",
            path.display()
        )
    });
    if got != want {
        let drift: Vec<String> = got
            .lines()
            .zip(want.lines())
            .filter(|(g, w)| g != w)
            .map(|(g, w)| format!("  expected: {w}\n  got:      {g}"))
            .collect();
        panic!("{fixture}: report drifted from {}:\n{}", path.display(), drift.join("\n"));
    }
}

fn single(model: Model, opts: AstraOptions) -> Report {
    let built = tiny(model);
    let dev = DeviceSpec::p100();
    Astra::new(&built.graph, &dev, opts).optimize().expect("optimization succeeds")
}

fn two_devices(model: Model, opts: AstraOptions) -> Report {
    let built = tiny(model);
    let topo = Topology::homogeneous(DeviceSpec::p100(), 2, LinkDesc::nvlink());
    Astra::with_topology(&built.graph, &topo, opts).optimize().expect("optimization succeeds")
}

#[test]
fn sublstm_all_dims_report_matches_golden() {
    let r = single(Model::SubLstm, AstraOptions { dims: Dims::all(), ..Default::default() });
    check("sublstm_all.report", &r);
}

#[test]
fn milstm_all_dims_report_matches_golden() {
    let r = single(Model::MiLstm, AstraOptions { dims: Dims::all(), ..Default::default() });
    check("milstm_all.report", &r);
}

#[test]
fn chaos_report_matches_golden() {
    let r = single(
        Model::SubLstm,
        AstraOptions { dims: Dims::all(), faults: FaultPlan::chaos(7), ..Default::default() },
    );
    assert!(r.retries > 0 && r.quarantined > 0, "chaos must exercise retries and quarantine");
    check("sublstm_all_chaos.report", &r);
}

#[test]
fn predictor_off_report_matches_golden() {
    let r = single(
        Model::MiLstm,
        AstraOptions { dims: Dims::all(), predictor: false, ..Default::default() },
    );
    check("milstm_all_predictor_off.report", &r);
}

#[test]
fn bound_prune_report_matches_golden() {
    let r = single(
        Model::MiLstm,
        AstraOptions { dims: Dims::all(), bound_prune: true, ..Default::default() },
    );
    assert!(r.bound_pruned > 0, "the case must exercise the bound veto");
    check("milstm_all_bound_prune.report", &r);
}

#[test]
fn two_device_report_matches_golden() {
    let r = two_devices(Model::SubLstm, AstraOptions { dims: Dims::all(), ..Default::default() });
    assert!(r.placements_explored > 1, "the case must explore placements");
    check("sublstm_all_2dev.report", &r);
}

#[test]
fn two_device_chaos_report_matches_golden() {
    let r = two_devices(
        Model::SubLstm,
        AstraOptions { dims: Dims::all(), faults: FaultPlan::chaos(7), ..Default::default() },
    );
    assert!(r.retries > 0, "chaos must exercise retries");
    check("sublstm_all_2dev_chaos.report", &r);
}

#[test]
fn two_device_bound_prune_report_matches_golden() {
    let r = two_devices(
        Model::SubLstm,
        AstraOptions { dims: Dims::all(), bound_prune: true, ..Default::default() },
    );
    assert!(r.bound_pruned > 0, "the case must exercise the whole-run floor veto");
    check("sublstm_all_2dev_bound_prune.report", &r);
}

#[test]
fn cold_store_report_matches_golden() {
    let dir = std::env::temp_dir().join(format!("astra-golden-report-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let r = single(
        Model::SubLstm,
        AstraOptions { dims: Dims::all(), store_dir: Some(dir.clone()), ..Default::default() },
    );
    let _ = std::fs::remove_dir_all(&dir);
    assert!(r.store_journal_appends > 0, "the case must journal warm state");
    check("sublstm_all_cold_store.report", &r);
}
