//! End-to-end benchmark of the Astra explorer.
//!
//! One process runs one repetition of one workload and prints one JSON
//! object on its last stdout line; `run.py` drives the repetitions, fills
//! the measurement window, takes each process's peak RSS and aggregates.
//!
//! ```text
//! e2ebench prep  --workload W --store DIR --expect FILE
//! e2ebench setup --workload W --work DIR --seconds S [--fixture DIR]
//! e2ebench run   --workload W --work DIR [--fixture DIR --expect FILE]
//!                [--trace FILE]
//! ```
//!
//! `prep` is the untimed cold run that fills a warm-store fixture and
//! records its plan and steady time in `FILE`. `setup` times set-up
//! repeatedly for `S` seconds. `run` times set-up once and one
//! `Astra::optimize`, checks the result independently of the optimizer,
//! and with `--trace` replays each layer's public function on the run's
//! own plans inside benchmark-side spans, writing the spans to `FILE` as
//! Chrome trace JSON.
//!
//! The benchmark drives the optimizer through public API only, and a
//! workload sets only inputs (model, batch, dims, workers, fault plan,
//! store directory), never a feature switch. Every input is fixed per
//! workload, so plans and counters repeat exactly on every run.

#![forbid(unsafe_code)]

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

use astra_core::enumerate::{epoch_choices, partition_units, Partition};
use astra_core::{
    bind_libs, compact_store, effective_workers, emit_schedule, epoch_features, fusion_features,
    kernel_features, lint_plan, verify_plan, Astra, AstraOptions, Dims, ExecConfig, PlanCache,
    PlanContext, ProbeSpec, ProfileIndex, Report, Unit,
};
use astra_gpu::{DeviceSpec, Engine, FaultPlan, Schedule, Topology};
use astra_models::Model;

/// Mini-batch size of every workload.
const BATCH: u64 = 16;

/// Repetitions of each per-layer replay; the median is reported.
const REPLAY_REPS: usize = 3;

/// Minimum wall time spent replaying feature extraction, so microsecond
/// calls are timed over many iterations.
const FEATURE_REPLAY_S: f64 = 0.02;

/// Fault seed of the chaos workload. It is fixed rather than drawn per
/// run: timing spikes are heavy-tailed, so exploration time differs
/// several-fold between seeds (36.5k to 131k simulated ms over seeds 1 to
/// 7) and no affordable run length would make a per-run draw steady.
const CHAOS_SEED: u64 = 7;

#[derive(Clone, Copy, PartialEq)]
enum Workload {
    /// The headline run: every optimizable layer does real work, and the
    /// worker pool runs with more than one worker.
    MilstmCold,
    /// Replays a store filled by an identical cold run: simulation
    /// collapses to memo replay while store reads and writes dominate.
    MilstmWarmStore,
    /// Fault injection: faulted trials draw fresh salts, so every trial
    /// simulates from `t = 0` and the retry/quarantine path runs.
    RhnChaos,
}

impl Workload {
    fn parse(name: &str) -> Result<Self, String> {
        match name {
            "milstm-cold" => Ok(Workload::MilstmCold),
            "milstm-warm-store" => Ok(Workload::MilstmWarmStore),
            "rhn-chaos" => Ok(Workload::RhnChaos),
            other => Err(format!("unknown workload '{other}'")),
        }
    }

    fn model(self) -> Model {
        match self {
            Workload::MilstmCold | Workload::MilstmWarmStore => Model::MiLstm,
            Workload::RhnChaos => Model::Rhn,
        }
    }

    fn dims(self) -> Dims {
        match self {
            Workload::MilstmWarmStore => Dims::fks(),
            Workload::MilstmCold | Workload::RhnChaos => Dims::all(),
        }
    }

    fn workers(self) -> usize {
        match self {
            Workload::MilstmCold => available_cpus().min(2),
            Workload::MilstmWarmStore | Workload::RhnChaos => 1,
        }
    }

    fn faults(self) -> FaultPlan {
        match self {
            Workload::RhnChaos => FaultPlan::chaos(CHAOS_SEED),
            Workload::MilstmCold | Workload::MilstmWarmStore => FaultPlan::none(),
        }
    }

    fn uses_store(self) -> bool {
        self == Workload::MilstmWarmStore
    }

    /// The optimizer inputs. Everything not set here keeps its default,
    /// so the benchmark survives the removal of any feature switch.
    fn options(self, store_dir: Option<PathBuf>) -> AstraOptions {
        AstraOptions {
            dims: self.dims(),
            workers: self.workers(),
            faults: self.faults(),
            store_dir,
            ..Default::default()
        }
    }
}

fn available_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Everything the benchmark reads from a [`Report`]. This is the only
/// function that names `Report` fields, so a restructured `Report` is
/// adapted here and nowhere else.
///
/// Derived counts:
/// * `engine.runs` — simulated trial runs, `sim_cache_hits +
///   sim_cache_misses`: every trial, retry and playoff run goes through
///   the sim cache and counts as exactly one hit or miss. The native
///   baseline has no schedule boundaries, bypasses the cache and is not
///   counted.
/// * `plan.emit.calls` — `engine.runs + trials_pruned + bound_pruned`:
///   every candidate is emitted before it is simulated or pruned, and a
///   phase retry re-emits before it re-simulates. It is exact without
///   faults; under faults a playoff retry re-simulates without
///   re-emitting (one extra count per retried playoff) and a candidate
///   rejected by verify or lint is emitted without either (one count
///   short per rejection, zero in every workload here).
/// * `explore.candidates` — the same sum, read as candidates decided.
/// * `lint.calls` — `plans_verified - verify_rejects`: the linter runs
///   once per plan key, after a clean verify, under the same cache key.
struct Facts {
    best: ExecConfig,
    native_ns: f64,
    steady_ns: f64,
    exploration_ns: f64,
    super_epochs: usize,
    warm_start: bool,
    store_corrupt_records: u64,
    /// Deterministic counts by per-layer metric name.
    counts: Vec<(&'static str, f64)>,
}

fn facts(r: &Report) -> Facts {
    let simulated = r.sim_cache_hits + r.sim_cache_misses;
    let emitted = simulated as f64 + r.trials_pruned as f64 + r.bound_pruned as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let plan_requests = (r.plan_cache_hits + r.plan_cache_misses) as f64;
    let counts = vec![
        ("explore.configs", r.configs_explored as f64),
        ("explore.candidates", emitted),
        ("plan.build_units.calls", r.plan_cache_misses as f64),
        (
            "plan.cache_hit_ratio",
            ratio(r.plan_cache_hits as f64, plan_requests),
        ),
        ("plan.emit.calls", emitted),
        ("verify.calls", r.plans_verified as f64),
        ("verify.rejects", r.verify_rejects as f64),
        (
            "lint.calls",
            r.plans_verified.saturating_sub(r.verify_rejects) as f64,
        ),
        ("lint.rejects", r.lint_rejects as f64),
        ("predict.updates", r.predictor_updates as f64),
        ("predict.pruned", r.trials_pruned as f64),
        (
            "predict.prune_ratio",
            ratio(
                r.trials_pruned as f64,
                (r.trials_pruned as u64 + simulated) as f64,
            ),
        ),
        ("predict.mae_us", r.predicted_vs_measured_mae / 1e3),
        ("engine.runs", simulated as f64),
        ("simcache.hits", r.sim_cache_hits as f64),
        ("simcache.misses", r.sim_cache_misses as f64),
        (
            "simcache.hit_ratio",
            ratio(r.sim_cache_hits as f64, simulated as f64),
        ),
        ("simcache.resumed_fraction", r.resumed_fraction),
        ("simcache.prefix_groups", r.prefix_group_count as f64),
        ("faults.events", r.fault_events as f64),
        ("faults.retries", r.retries as f64),
        ("faults.quarantined", r.quarantined as f64),
        ("store.loaded_keys", r.store_loaded_keys as f64),
        ("store.corrupt_records", r.store_corrupt_records as f64),
        ("store.journal_appends", r.store_journal_appends as f64),
        ("store.compactions", r.store_compactions as f64),
        ("plan.super_epochs", r.super_epochs as f64),
        ("plan.strategies", r.strategies_explored as f64),
        ("plan.fusion_sets", r.fusion_sets as f64),
    ];
    Facts {
        best: r.best.clone(),
        native_ns: r.native_ns,
        steady_ns: r.steady_ns,
        exploration_ns: r.exploration_ns,
        super_epochs: r.super_epochs,
        warm_start: r.warm_start,
        store_corrupt_records: r.store_corrupt_records,
        counts,
    }
}

impl Facts {
    fn count(&self, name: &str) -> f64 {
        self.counts
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(|| panic!("no count named {name}"), |&(_, v)| v)
    }
}

/// FNV-1a over a plan's canonical one-line rendering.
fn plan_fp(best: &ExecConfig) -> u64 {
    best.summary().bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

// ---------------------------------------------------------------- spans

/// One benchmark-side span: a timed call into a layer.
struct Span {
    name: &'static str,
    start_ns: u128,
    end_ns: u128,
    parent: Option<usize>,
}

/// In-memory span recorder; written out once, when the run ends.
struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new() -> Self {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.t0.elapsed().as_nanos();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes span `id` (the innermost open one) and returns its length
    /// in seconds.
    fn exit(&mut self, id: usize) -> f64 {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id];
        span.end_ns = self.t0.elapsed().as_nanos();
        (span.end_ns - span.start_ns) as f64 / 1e9
    }

    /// Runs `f` inside a span and returns its result and duration.
    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name);
        let out = f();
        (out, self.exit(id))
    }

    fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"parent\":{parent}}}}}",
                if i > 0 { "," } else { "" },
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            );
        }
        out.push_str("]}");
        out
    }
}

// ------------------------------------------------------------ utilities

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Copies `src` into `dst` and syncs the copies, so their write-back does
/// not overlap the timed work that follows.
fn copy_dir(src: &Path, dst: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dst)?;
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let to = dst.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &to)?;
        } else {
            std::fs::copy(entry.path(), &to)?;
            std::fs::File::open(&to)?.sync_all()?;
        }
    }
    Ok(())
}

/// Replaces `dst` with a fresh copy of `src` (or a fresh empty
/// directory when `src` is `None`).
fn fresh_dir(src: Option<&Path>, dst: &Path) -> std::io::Result<()> {
    if dst.exists() {
        std::fs::remove_dir_all(dst)?;
    }
    match src {
        Some(src) => copy_dir(src, dst),
        None => std::fs::create_dir_all(dst),
    }
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        total += if entry.file_type()?.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            entry.metadata()?.len()
        };
    }
    Ok(total)
}

/// A JSON object built field by field; numbers keep every digit.
struct Json(String);

impl Json {
    fn new() -> Self {
        Json(String::new())
    }

    fn raw(&mut self, key: &str, value: &str) -> &mut Self {
        let _ = write!(
            self.0,
            "{}\"{key}\":{value}",
            if self.0.is_empty() { "" } else { "," }
        );
        self
    }

    fn num(&mut self, key: &str, v: f64) -> &mut Self {
        assert!(v.is_finite(), "{key} is not finite: {v}");
        self.raw(key, &format!("{v:?}"))
    }

    fn str(&mut self, key: &str, v: &str) -> &mut Self {
        self.raw(key, &json_str(v))
    }

    fn list(&mut self, key: &str, vs: &[f64]) -> &mut Self {
        let items: Vec<String> = vs.iter().map(|v| format!("{v:?}")).collect();
        self.raw(key, &format!("[{}]", items.join(",")))
    }

    fn nums(&mut self, key: &str, vs: &[(&str, f64)]) -> &mut Self {
        let mut inner = Json::new();
        for &(k, v) in vs {
            inner.num(k, v);
        }
        self.raw(key, &inner.finish())
    }

    fn finish(&self) -> String {
        format!("{{{}}}", self.0)
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

// ---------------------------------------------------------------- check

/// The plan the optimizer reports, re-derived through public API: units,
/// the playoff's super-epoch partition (default budget: total FLOPs / 8),
/// and the emitted schedule.
struct Replayed {
    units: std::sync::Arc<[Unit]>,
    partition: Option<Partition>,
    sched: Schedule,
}

fn replay_plan(ctx: &PlanContext<'_>, f: &Facts) -> Result<Replayed, String> {
    let units = PlanCache::new()
        .units_for(ctx, &f.best)
        .map_err(|e| e.to_string())?;
    let partition = (f.super_epochs > 0).then(|| {
        let total_flops: f64 = units.iter().map(|u| u.flops).sum();
        partition_units(&units, (total_flops / 8.0).max(1.0))
    });
    let (sched, _) = emit_schedule(ctx, &f.best, &units, partition.as_ref(), &ProbeSpec::none());
    Ok(Replayed {
        units,
        partition,
        sched,
    })
}

/// The output check, independent of the optimizer's own measurement.
/// Returns every problem found (empty = correct).
fn check(
    w: Workload,
    ctx: &PlanContext<'_>,
    dev: &DeviceSpec,
    f: &Facts,
    plan: &Replayed,
    expect: Option<&(u64, String)>,
) -> Vec<String> {
    let mut problems = Vec::new();
    let verdict = verify_plan(ctx, &f.best, &plan.units, &plan.sched, w.workers());
    if !verdict.is_clean() {
        problems.push(format!(
            "winning plan fails verify: {} finding(s)",
            verdict.errors()
        ));
    }
    let topo = Topology::single(dev.clone());
    let lint = lint_plan(ctx, &f.best, &plan.units, &plan.sched, &topo, 1);
    if lint.errors() > 0 {
        problems.push(format!(
            "winning plan fails lint: {} error(s)",
            lint.errors()
        ));
    }
    if f.steady_ns > f.native_ns || f.steady_ns.is_nan() {
        problems.push(format!(
            "steady {} ns exceeds native {} ns",
            f.steady_ns, f.native_ns
        ));
    }
    if w.faults().is_none() {
        match Engine::new(dev).run(&plan.sched) {
            Ok(r) if r.total_ns.to_bits() == f.steady_ns.to_bits() => {}
            Ok(r) => problems.push(format!(
                "fresh engine run {} ns differs from reported steady {} ns",
                r.total_ns, f.steady_ns
            )),
            Err(e) => problems.push(format!("fresh engine run failed: {e}")),
        }
    }
    if w.uses_store() {
        if !f.warm_start || f.store_corrupt_records != 0 {
            problems.push(format!(
                "store not warm: warm_start={} corrupt_records={}",
                f.warm_start, f.store_corrupt_records
            ));
        }
        if let Some((bits, summary)) = expect {
            if f.steady_ns.to_bits() != *bits || f.best.summary() != *summary {
                problems.push("warm plan or steady time differs from the cold fixture run".into());
            }
        }
    }
    problems
}

// -------------------------------------------------------------- replays

/// Times each layer's public function on the run's own plans: the
/// baseline configuration of every explored allocation strategy, and the
/// winner. Returns per-call timings by per-layer metric name.
fn replay_layers(
    tr: &mut Tracer,
    w: Workload,
    graph: &astra_ir::Graph,
    ctx: &PlanContext<'_>,
    dev: &DeviceSpec,
    f: &Facts,
    plan: &Replayed,
) -> Vec<(&'static str, f64)> {
    let replay = tr.enter("replay");
    let mut out = Vec::new();

    let enumerate: Vec<f64> = (0..REPLAY_REPS)
        .map(|_| {
            tr.time("enumerate", || {
                std::hint::black_box(PlanContext::new(graph))
            })
            .1
        })
        .collect();
    out.push(("enumerate.ms", median(&enumerate) * 1e3));

    let strategies = f.count("plan.strategies") as usize;
    let mut cfgs: Vec<(ExecConfig, Option<&Partition>)> = (0..strategies)
        .map(|s| {
            (
                ExecConfig {
                    strategy: s,
                    ..ExecConfig::baseline()
                },
                None,
            )
        })
        .collect();
    cfgs.push((f.best.clone(), plan.partition.as_ref()));
    let topo = Topology::single(dev.clone());
    let (mut build, mut emit, mut verify, mut lint) = (vec![], vec![], vec![], vec![]);
    for _ in 0..REPLAY_REPS {
        let (mut b, mut e, mut v, mut l) = (0.0, 0.0, 0.0, 0.0);
        for (cfg, partition) in &cfgs {
            let (units, t) = tr.time("plan.build_units", || PlanCache::build_structural(ctx, cfg));
            b += t;
            let units = bind_libs(&units.expect("explored plans build"), cfg);
            let ((sched, _), t) = tr.time("plan.emit", || {
                emit_schedule(ctx, cfg, &units, *partition, &ProbeSpec::none())
            });
            e += t;
            v += tr
                .time("verify", || {
                    verify_plan(ctx, cfg, &units, &sched, w.workers())
                })
                .1;
            l += tr
                .time("lint", || lint_plan(ctx, cfg, &units, &sched, &topo, 1))
                .1;
        }
        let n = cfgs.len() as f64;
        build.push(b / n);
        emit.push(e / n);
        verify.push(v / n);
        lint.push(l / n);
    }
    out.push(("plan.build_units.ms_per_call", median(&build) * 1e3));
    out.push(("plan.emit.ms_per_call", median(&emit) * 1e3));
    out.push(("plan.emit.cmds", plan.sched.cmds().len() as f64));
    out.push(("verify.ms_per_call", median(&verify) * 1e3));
    out.push(("lint.ms_per_call", median(&lint) * 1e3));

    out.push((
        "predict.features_us_per_call",
        replay_features(tr, ctx, f, plan) * 1e6,
    ));

    let engine: Vec<f64> = (0..REPLAY_REPS)
        .map(|_| {
            tr.time("engine.run", || {
                Engine::new(dev).run(&plan.sched).expect("winner runs")
            })
            .1
        })
        .collect();
    let engine_s = median(&engine);
    out.push(("engine.ms_per_run", engine_s * 1e3));
    out.push((
        "engine.ns_per_cmd",
        engine_s * 1e9 / plan.sched.cmds().len() as f64,
    ));
    let end = plan.sched.cmds().len();
    let (_, memo) = Engine::new(dev)
        .run_incremental(&plan.sched, None, &[end])
        .expect("winner runs");
    let resume: Vec<f64> = (0..REPLAY_REPS)
        .map(|_| {
            tr.time("engine.resume", || {
                Engine::new(dev)
                    .run_incremental(&plan.sched, memo.first(), &[])
                    .expect("memo resumes")
            })
            .1
        })
        .collect();
    out.push(("engine.resume_ms_per_run", median(&resume) * 1e3));
    tr.exit(replay);
    out
}

/// Times feature extraction for every adaptive variable of the winning
/// plan: its fusion-set chunkings, kernel-library bindings and (with a
/// partition) the first stream mapping of each epoch. Returns seconds per
/// extracted feature vector.
fn replay_features(tr: &mut Tracer, ctx: &PlanContext<'_>, f: &Facts, plan: &Replayed) -> f64 {
    let best = &f.best;
    let flops_of: BTreeMap<_, _> = plan.units.iter().map(|u| (u.id, u.flops)).collect();
    let epochs: Vec<(usize, usize, Vec<_>)> = plan.partition.as_ref().map_or(Vec::new(), |p| {
        let mut v = Vec::new();
        for (sei, se) in p.super_epochs.iter().enumerate() {
            for (ei, epoch) in se.epochs.iter().enumerate() {
                let mut choices = epoch_choices(&plan.units, epoch, best.num_streams.max(2));
                v.push((sei, ei, choices.swap_remove(0)));
            }
        }
        v
    });
    let span = tr.enter("predict.features");
    let t0 = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || t0.elapsed().as_secs_f64() < FEATURE_REPLAY_S {
        for set in &ctx.sets {
            let (rc, cc) = best.chunk_for(&set.id);
            std::hint::black_box(fusion_features(best, 0, set, rc, cc));
            calls += 1;
        }
        for (&shape, &lib) in &best.libs {
            std::hint::black_box(kernel_features(best, 0, shape, lib));
            calls += 1;
        }
        for (sei, ei, asg) in &epochs {
            std::hint::black_box(epoch_features(best, 0, *sei, *ei, 0, asg, &flops_of));
            calls += 1;
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    tr.exit(span);
    elapsed / calls as f64
}

// ----------------------------------------------------------- subcommands

struct Args(Vec<String>);

impl Args {
    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn need(&self, flag: &str) -> Result<&str, String> {
        self.get(flag).ok_or_else(|| format!("missing {flag}"))
    }

    fn num_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        self.get(flag).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("invalid value for {flag}: {v}"))
        })
    }
}

/// The fixture's expected result: steady-time bits, then the plan summary.
fn read_expect(path: &Path) -> Result<(u64, String), String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let (bits, summary) = text.split_once('\n').ok_or("malformed expect file")?;
    Ok((
        bits.parse().map_err(|_| "malformed expect file")?,
        summary.to_owned(),
    ))
}

/// The `--fixture` argument, which exactly the store workloads require.
fn fixture_arg(args: &Args, w: Workload) -> Result<Option<PathBuf>, String> {
    let fixture = args.get("--fixture").map(PathBuf::from);
    if w.uses_store() != fixture.is_some() {
        return Err("--fixture is required by, and only by, the warm-store workload".into());
    }
    Ok(fixture)
}

fn cmd_prep(args: &Args) -> Result<String, String> {
    let w = Workload::parse(args.need("--workload")?)?;
    let store = PathBuf::from(args.need("--store")?);
    let expect = PathBuf::from(args.need("--expect")?);
    fresh_dir(None, &store).map_err(|e| e.to_string())?;
    let built = w.model().build(&w.model().default_config(BATCH));
    let dev = DeviceSpec::p100();
    let mut astra = Astra::new(&built.graph, &dev, w.options(Some(store)));
    let report = astra.optimize().map_err(|e| e.to_string())?;
    if let Some(e) = astra.store_error() {
        return Err(format!("fixture store failed: {e}"));
    }
    drop(astra);
    let f = facts(&report);
    let text = format!("{}\n{}", f.steady_ns.to_bits(), f.best.summary());
    std::fs::write(&expect, text).map_err(|e| e.to_string())?;
    Ok(Json::new()
        .str("plan_fp", &format!("{:016x}", plan_fp(&f.best)))
        .finish())
}

/// Times set-up — building the model and `Astra::new` (enumeration, and
/// with a store its open and load) — until `--seconds` have passed, at
/// least once. Each set-up opens a fresh copy of the fixture; the copy is
/// not timed.
fn cmd_setup(args: &Args) -> Result<String, String> {
    let w = Workload::parse(args.need("--workload")?)?;
    let store_dir = PathBuf::from(args.need("--work")?).join("store");
    let budget_s: f64 = args.num_or("--seconds", 0.0)?;
    let fixture = fixture_arg(args, w)?;
    let rep_store = fixture.is_some().then(|| store_dir.clone());
    let dev = DeviceSpec::p100();
    let mut setup_s = Vec::new();
    let start = Instant::now();
    while setup_s.is_empty() || start.elapsed().as_secs_f64() < budget_s {
        if fixture.is_some() {
            fresh_dir(fixture.as_deref(), &store_dir).map_err(|e| e.to_string())?;
        }
        let t = Instant::now();
        let built = w.model().build(&w.model().default_config(BATCH));
        let astra = Astra::new(&built.graph, &dev, w.options(rep_store.clone()));
        setup_s.push(t.elapsed().as_secs_f64());
        drop(std::hint::black_box(astra));
    }
    Ok(Json::new().list("setup_s", &setup_s).finish())
}

fn cmd_run(args: &Args) -> Result<String, String> {
    let w = Workload::parse(args.need("--workload")?)?;
    let work = PathBuf::from(args.need("--work")?);
    let fixture = fixture_arg(args, w)?;
    let expect = args
        .get("--expect")
        .map(|p| read_expect(Path::new(p)))
        .transpose()?;
    let trace_out = args.get("--trace").map(PathBuf::from);
    let store_dir = work.join("store");
    let rep_store = w.uses_store().then(|| store_dir.clone());
    let dev = DeviceSpec::p100();
    let mut tr = Tracer::new();
    let io = |e: std::io::Error| e.to_string();

    if w.uses_store() {
        fresh_dir(fixture.as_deref(), &store_dir).map_err(io)?;
    }
    let span = tr.enter("setup");
    let built = w.model().build(&w.model().default_config(BATCH));
    let mut astra = Astra::new(&built.graph, &dev, w.options(rep_store));
    let setup_s = tr.exit(span);
    if let Some(e) = astra.store_error() {
        return Err(format!("store failed to open: {e}"));
    }

    let span = tr.enter("optimize");
    let report = astra.optimize();
    let optimize_s = tr.exit(span);
    let report = report.map_err(|e| format!("optimize failed: {e}"))?;
    if let Some(e) = astra.store_error() {
        return Err(format!("store failed during the run: {e}"));
    }
    let f = facts(&report);
    let ctx = astra.context();
    let plan = replay_plan(ctx, &f)?;
    let problems = check(w, ctx, &dev, &f, &plan, expect.as_ref());
    let mut layers = match &trace_out {
        Some(_) => replay_layers(&mut tr, w, &built.graph, ctx, &dev, &f, &plan),
        None => Vec::new(),
    };
    // Closing the optimizer flushes its store before the store is sized
    // or copied.
    drop(astra);
    let store_bytes = if w.uses_store() {
        dir_bytes(&store_dir).map_err(io)? as f64
    } else {
        0.0
    };
    layers.push(("store.bytes_after", store_bytes));
    if let Some(trace_out) = &trace_out {
        let copy = work.join("store-replay");
        let after_run = w.uses_store().then_some(store_dir.as_path());
        let fixture = fixture.as_deref();
        let store = replay_store(&mut tr, w, fixture, after_run, &copy, &built.graph, &dev)?;
        layers.extend(store);
        layers.extend(attribution(&f, &layers, optimize_s));
        std::fs::write(trace_out, tr.chrome_json()).map_err(io)?;
    }

    let problem_list: Vec<String> = problems.iter().map(|p| json_str(p)).collect();
    let mut det = vec![
        ("steady_ns", f.steady_ns),
        ("native_ns", f.native_ns),
        ("exploration_ns", f.exploration_ns),
    ];
    det.extend(f.counts.iter().copied());
    let mut out = Json::new();
    out.num("setup_s", setup_s)
        .num("optimize_s", optimize_s)
        .str("plan_fp", &format!("{:016x}", plan_fp(&f.best)))
        .num("workers", effective_workers(w.workers()) as f64)
        .nums("deterministic", &det)
        .nums("layers", &layers)
        .raw("problems", &format!("[{}]", problem_list.join(",")));
    Ok(out.finish())
}

/// Host time the per-call replays account for, against the run's own
/// `optimize` wall time. Engine cost charges only the commands the sim
/// cache did not resume. Feature extraction is charged once per predictor
/// update, a lower bound: every committed measurement trains on one
/// feature vector, and scored candidates that are never committed add
/// more.
fn attribution(f: &Facts, layers: &[(&str, f64)], optimize_s: f64) -> Vec<(&'static str, f64)> {
    let per = |name: &str| {
        layers
            .iter()
            .find(|(n, _)| *n == name)
            .map_or_else(|| panic!("no layer {name}"), |&(_, v)| v)
    };
    let attributed_s = f.count("plan.build_units.calls") * per("plan.build_units.ms_per_call")
        / 1e3
        + f.count("plan.emit.calls") * per("plan.emit.ms_per_call") / 1e3
        + f.count("verify.calls") * per("verify.ms_per_call") / 1e3
        + f.count("lint.calls") * per("lint.ms_per_call") / 1e3
        + f.count("predict.updates") * per("predict.features_us_per_call") / 1e6
        + f.count("engine.runs")
            * (1.0 - f.count("simcache.resumed_fraction"))
            * per("engine.ms_per_run")
            / 1e3;
    vec![
        ("explore.unattributed_frac", 1.0 - attributed_s / optimize_s),
        (
            "explore.host_ms_per_candidate",
            optimize_s * 1e3 / f.count("explore.candidates").max(1.0),
        ),
    ]
}

/// Store-layer timings, on fresh copies made at `copy`: what opening the
/// set-up store (`fixture`) adds to building the optimizer from an
/// already enumerated context, and compacting the store the run left
/// behind (`after_run`). Workloads without a store open and compact a
/// fresh empty one: the store's fixed cost.
fn replay_store(
    tr: &mut Tracer,
    w: Workload,
    fixture: Option<&Path>,
    after_run: Option<&Path>,
    copy: &Path,
    graph: &astra_ir::Graph,
    dev: &DeviceSpec,
) -> Result<Vec<(&'static str, f64)>, String> {
    let io = |e: std::io::Error| e.to_string();
    let span = tr.enter("store");
    let (mut with, mut without) = (Vec::new(), Vec::new());
    for _ in 0..REPLAY_REPS {
        fresh_dir(fixture, copy).map_err(io)?;
        for (store_dir, times) in [(Some(copy.to_owned()), &mut with), (None, &mut without)] {
            let ctx = PlanContext::new(graph);
            let opts = w.options(store_dir);
            let (astra, t) = tr.time("astra_with_context", || {
                Astra::with_context(ctx, dev, opts, ProfileIndex::new())
            });
            times.push(t);
            drop(astra);
        }
    }
    let mut compact = Vec::new();
    for _ in 0..REPLAY_REPS {
        fresh_dir(after_run, copy).map_err(io)?;
        let (r, t) = tr.time("store.compact", || compact_store(copy));
        r.map_err(io)?;
        compact.push(t);
    }
    std::fs::remove_dir_all(copy).map_err(io)?;
    tr.exit(span);
    Ok(vec![
        ("store.open_ms", (median(&with) - median(&without)) * 1e3),
        ("store.compact_ms", median(&compact) * 1e3),
    ])
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = Args(argv.iter().skip(1).cloned().collect());
    let result = match argv.first().map(String::as_str) {
        Some("prep") => cmd_prep(&args),
        Some("setup") => cmd_setup(&args),
        Some("run") => cmd_run(&args),
        _ => Err("usage: e2ebench prep|setup|run --workload <name> ...".into()),
    };
    match result {
        Ok(json) => println!("{json}"),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}
