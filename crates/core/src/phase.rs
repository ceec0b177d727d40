//! The four exploration phases of the custom wirer (paper §4.7) as
//! instances of one [`Phase`] trait.
//!
//! Every phase walks an update tree of adaptive variables, runs one
//! mini-batch per trial, and commits per-variable measurements to the
//! profile index. The loop that does so is [`crate::Astra`]'s
//! `explore_phase`; a phase supplies only what differs: its variables and
//! tree, the candidate config of an assignment, how candidates are emitted
//! and probed, how a run decodes into per-variable metrics, profile keys,
//! predictor features, and sound per-variable floors.

use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

use astra_gpu::{GemmLibrary, GemmShape, RunResult, Topology};
use astra_predict::FeatureVec;

use crate::adaptive::{ExploreMode, UpdateNode};
use crate::astra::Prepared;
use crate::enumerate::epochs::{epoch_choices, EpochAssignment, Partition};
use crate::enumerate::FusionSet;
use crate::error::AstraError;
use crate::parallel::parallel_map;
use crate::plan::{
    bind_libs, epoch_features, fusion_features, gradient_sync_bytes, kernel_features,
    placement_features, DevicePlacement, ExecConfig, PlanCache, PlanContext, PlanKey, ProbeSpec,
    Probes, Unit, UnitId,
};
use crate::profile::{ProfileIndex, ProfileKey};

/// One trial's choice per adaptive variable, keyed by tree id.
pub(crate) type Assignment = BTreeMap<String, usize>;

/// Each candidate's clean (fault-free) units; `None` marks an invalid
/// (cyclic) geometry.
pub(crate) type CleanUnits = Vec<Option<Arc<[Unit]>>>;

/// What differs between exploration phases. Variables are addressed by
/// *variable index*, a position in [`Phase::vars`].
pub(crate) trait Phase {
    /// Predictor model and quarantine-mark kind.
    const KIND: &'static str;
    /// Whether a metric far above its key's recorded minimum is re-measured
    /// like a faulted run.
    const OUTLIER_TEST: bool = true;
    /// Whether, with the predictor on, committed metrics of variables not
    /// active in a batch still train it.
    const TRAIN_FROZEN: bool = false;

    /// Tree ids of the adaptive variables, in variable-index order.
    fn vars(&self) -> &[String];
    /// The update tree's root over [`Phase::vars`].
    fn root(&self) -> UpdateNode;
    /// The candidate configuration `base` becomes under `asg`.
    fn cfg_for(&self, base: &ExecConfig, asg: &Assignment) -> ExecConfig;
    /// Each candidate's clean units, with the phase's schedule-cache
    /// accounting.
    fn clean_units(
        &self,
        ctx: &PlanContext<'_>,
        cache: &mut PlanCache,
        cfgs: &[ExecConfig],
        workers: usize,
    ) -> Result<CleanUnits, AstraError>;
    /// The super-epoch partition candidates are emitted under.
    fn partition(&self) -> Option<&Partition> {
        None
    }
    /// The profiling probes candidates are emitted with.
    fn probe_spec(&self) -> &ProbeSpec;
    /// One run's `(variable index, metric)` pairs, in commit order.
    fn decode(&self, probes: &Probes, run: &RunResult) -> Vec<(usize, f64)>;
    /// The profile key of variable `v` at `choice`.
    fn key(&self, v: usize, choice: usize) -> ProfileKey;
    /// The variables whose features drive pruning in `batch`, ascending.
    fn active(&self, _batch: &[Assignment]) -> Vec<usize> {
        (0..self.vars().len()).collect()
    }
    /// Predictor features of variable `v` at `choice` in candidate `cfg`.
    fn features(&self, cfg: &ExecConfig, topo_fp: u64, v: usize, choice: usize) -> FeatureVec;
    /// Sound `(variable index, floor)` lower bounds on a prepared
    /// candidate's metrics for the `active` variables.
    fn floors(&self, p: &Prepared, active: &[usize], topo: &Topology) -> Vec<(usize, f64)>;
}

/// `entity`'s profile key at `choice`, nested in every present context
/// (innermost first).
fn profile_key(entity: String, choice: usize, contexts: &[Option<&str>]) -> ProfileKey {
    let mut k = ProfileKey::entity(entity, choice);
    for c in contexts.iter().flatten() {
        k = k.in_context(*c);
    }
    k
}

/// Tree root exploring every variable independently in one trial.
fn parallel_root(vars: &[String], choices: impl Fn(usize) -> usize) -> UpdateNode {
    let vars = vars.iter().enumerate().map(|(v, id)| UpdateNode::var(id.clone(), choices(v)));
    UpdateNode::group(ExploreMode::Parallel, vars.collect())
}

/// The profile-key contexts of one strategy pass, innermost first: the
/// allocation-strategy context (when the fork is on), then the
/// dynamic-graph bucket.
#[derive(Clone, Copy)]
pub(crate) struct Contexts<'a> {
    pub strat: Option<&'a str>,
    pub bucket: Option<&'a str>,
}

/// Every candidate shares `units` (placement and stream trials change the
/// wiring, never the unit geometry).
fn shared(units: &Arc<[Unit]>, n: usize) -> Result<CleanUnits, AstraError> {
    Ok(vec![Some(Arc::clone(units)); n])
}

/// Phase F: per-set (row, col) chunk choices, explored in parallel. Sets
/// conflicted under the allocation fork key their measurements by strategy
/// context; the rest share them across strategies.
pub(crate) struct FusionPhase<'a> {
    vars: Vec<String>,
    sets: Vec<FusionSet>,
    choices: Vec<Vec<(usize, usize)>>,
    ctx_dep: Vec<bool>,
    /// `ctx.sets` index → variable index.
    set_var: BTreeMap<usize, usize>,
    cx: Contexts<'a>,
    probes: ProbeSpec,
}

impl<'a> FusionPhase<'a> {
    /// The sets left to explore; sets whose every choice is already
    /// indexed (from a previous strategy) take their indexed best in `cfg`
    /// instead. `None` when no set is left.
    pub(crate) fn new(
        ctx: &PlanContext<'_>,
        index: &ProfileIndex,
        cfg: &mut ExecConfig,
        cx: Contexts<'a>,
    ) -> Option<Self> {
        let mut phase = FusionPhase {
            vars: Vec::new(),
            sets: Vec::new(),
            choices: Vec::new(),
            ctx_dep: Vec::new(),
            set_var: BTreeMap::new(),
            cx,
            probes: ProbeSpec::fusion_sets(),
        };
        for (si, set) in ctx.sets.iter().enumerate() {
            let rcs = set.row_chunks();
            let choices: Vec<_> = rcs
                .iter()
                .flat_map(|&rc| set.col_chunks().into_iter().map(move |cc| (rc, cc)))
                .collect();
            let ctx_dep = ctx.alloc.conflicted_sets.contains(&set.id);
            let key = |c| fuse_key(&set.id, ctx_dep, cx, c);
            if (0..choices.len()).all(|c| index.contains(&key(c))) {
                let (best, _) = index.best_choice(key, choices.len()).expect("all hits");
                cfg.chunks.insert(set.id.clone(), choices[best]);
            } else {
                phase.set_var.insert(si, phase.vars.len());
                phase.vars.push(set.id.clone());
                phase.sets.push(set.clone());
                phase.choices.push(choices);
                phase.ctx_dep.push(ctx_dep);
            }
        }
        (!phase.vars.is_empty()).then_some(phase)
    }
}

fn fuse_key(set_id: &str, ctx_dep: bool, cx: Contexts<'_>, choice: usize) -> ProfileKey {
    profile_key(format!("fuse:{set_id}"), choice, &[cx.strat.filter(|_| ctx_dep), cx.bucket])
}

impl Phase for FusionPhase<'_> {
    const KIND: &'static str = "fuse";

    fn vars(&self) -> &[String] {
        &self.vars
    }

    fn root(&self) -> UpdateNode {
        parallel_root(&self.vars, |v| self.choices[v].len())
    }

    fn cfg_for(&self, base: &ExecConfig, asg: &Assignment) -> ExecConfig {
        let mut c = base.clone();
        for (v, id) in self.vars.iter().enumerate() {
            c.chunks.insert(id.clone(), self.choices[v][asg[id]]);
        }
        c
    }

    /// Cache bookkeeping runs in candidate order, so the hit/miss counters
    /// are deterministic; the batch's missing geometries then build on the
    /// worker pool.
    fn clean_units(
        &self,
        ctx: &PlanContext<'_>,
        cache: &mut PlanCache,
        cfgs: &[ExecConfig],
        workers: usize,
    ) -> Result<CleanUnits, AstraError> {
        let keys: Vec<PlanKey> = cfgs.iter().map(|c| PlanCache::key(ctx, c)).collect();
        let mut to_build: Vec<usize> = Vec::new();
        for (i, key) in keys.iter().enumerate() {
            if cache.contains(key) || to_build.iter().any(|&j| keys[j] == *key) {
                cache.count_hit();
            } else {
                cache.count_miss();
                to_build.push(i);
            }
        }
        let built =
            parallel_map(workers, &to_build, |_, &i| PlanCache::build_structural(ctx, &cfgs[i]));
        for (&i, r) in to_build.iter().zip(built) {
            cache.insert(keys[i].clone(), r);
        }
        let bound = |(k, c)| {
            cache.get(k).expect("batch keys are built").as_ref().ok().map(|u| bind_libs(u, c))
        };
        Ok(keys.iter().zip(cfgs).map(bound).collect())
    }

    fn probe_spec(&self) -> &ProbeSpec {
        &self.probes
    }

    /// A set's metric: its first block's probe region times its block count.
    fn decode(&self, probes: &Probes, run: &RunResult) -> Vec<(usize, f64)> {
        let metric = |&(si, nblocks, start, end): &(usize, usize, _, _)| {
            Some((*self.set_var.get(&si)?, run.elapsed(start, end)?.max(0.0) * nblocks as f64))
        };
        probes.set_regions.iter().filter_map(metric).collect()
    }

    fn key(&self, v: usize, choice: usize) -> ProfileKey {
        fuse_key(&self.vars[v], self.ctx_dep[v], self.cx, choice)
    }

    fn features(&self, cfg: &ExecConfig, topo_fp: u64, v: usize, choice: usize) -> FeatureVec {
        let (rc, cc) = self.choices[v][choice];
        fusion_features(cfg, topo_fp, &self.sets[v], rc, cc)
    }

    /// The probe-region floor, scaled by the same block count as the metric.
    fn floors(&self, p: &Prepared, _active: &[usize], topo: &Topology) -> Vec<(usize, f64)> {
        let regions = &p.probes.set_regions;
        let spans: Vec<_> = regions.iter().map(|&(_, _, s, e)| (s, e)).collect();
        let floors = astra_lint::region_floors(&p.sched, &spans, topo, &|_, _| None);
        let scaled = |(&(si, nb, _, _), f): (&(usize, usize, _, _), f64)| {
            self.set_var.get(&si).map(|&v| (v, f * nb as f64))
        };
        regions.iter().zip(floors).filter_map(scaled).collect()
    }
}

/// Phase K: per-GEMM-shape library choices, explored in parallel. Kernel
/// timings depend only on (shape, library), so the keys are context-free
/// and every strategy and bucket shares them.
pub(crate) struct KernelPhase {
    vars: Vec<String>,
    shapes: Vec<GemmShape>,
    shape_var: BTreeMap<GemmShape, usize>,
    probes: ProbeSpec,
}

impl KernelPhase {
    /// The GEMM shapes of `units` left to explore; fully indexed shapes
    /// take their indexed best library in `cfg` instead. `None` when no
    /// shape is left.
    pub(crate) fn new(units: &[Unit], index: &ProfileIndex, cfg: &mut ExecConfig) -> Option<Self> {
        let libs = GemmLibrary::all();
        let mut shapes: Vec<GemmShape> = units.iter().filter_map(|u| u.gemm_shape).collect();
        shapes.sort_unstable();
        shapes.dedup();
        let mut phase = KernelPhase {
            vars: Vec::new(),
            shapes: Vec::new(),
            shape_var: BTreeMap::new(),
            probes: ProbeSpec::gemm_shapes(),
        };
        for shape in shapes {
            let id = format!("{shape}");
            let key = |c| kern_key(&id, c);
            if (0..libs.len()).all(|c| index.contains(&key(c))) {
                let (best, _) = index.best_choice(key, libs.len()).expect("all hits");
                cfg.libs.insert(shape, libs[best]);
            } else {
                phase.shape_var.insert(shape, phase.vars.len());
                phase.vars.push(id);
                phase.shapes.push(shape);
            }
        }
        (!phase.vars.is_empty()).then_some(phase)
    }
}

fn kern_key(shape_id: &str, choice: usize) -> ProfileKey {
    ProfileKey::entity(format!("kern:{shape_id}"), choice)
}

impl Phase for KernelPhase {
    const KIND: &'static str = "kern";

    fn vars(&self) -> &[String] {
        &self.vars
    }

    fn root(&self) -> UpdateNode {
        parallel_root(&self.vars, |_| GemmLibrary::all().len())
    }

    fn cfg_for(&self, base: &ExecConfig, asg: &Assignment) -> ExecConfig {
        let mut c = base.clone();
        for (id, shape) in self.vars.iter().zip(&self.shapes) {
            c.libs.insert(*shape, GemmLibrary::all()[asg[id]]);
        }
        c
    }

    /// Library trials share one chunk geometry: every request after the
    /// phase's first is a cache hit, with the libraries bound in.
    fn clean_units(
        &self,
        ctx: &PlanContext<'_>,
        cache: &mut PlanCache,
        cfgs: &[ExecConfig],
        _workers: usize,
    ) -> Result<CleanUnits, AstraError> {
        cfgs.iter().map(|c| cache.units_for(ctx, c).map(Some)).collect()
    }

    fn probe_spec(&self) -> &ProbeSpec {
        &self.probes
    }

    /// A shape's metric: its first GEMM's probe region.
    fn decode(&self, probes: &Probes, run: &RunResult) -> Vec<(usize, f64)> {
        let metric = |&(shape, start, end): &(GemmShape, _, _)| {
            Some((*self.shape_var.get(&shape)?, run.elapsed(start, end)?.max(0.0)))
        };
        probes.shape_regions.iter().filter_map(metric).collect()
    }

    fn key(&self, v: usize, choice: usize) -> ProfileKey {
        kern_key(&self.vars[v], choice)
    }

    fn features(&self, cfg: &ExecConfig, topo_fp: u64, v: usize, choice: usize) -> FeatureVec {
        kernel_features(cfg, topo_fp, self.shapes[v], GemmLibrary::all()[choice])
    }

    fn floors(&self, p: &Prepared, _active: &[usize], topo: &Topology) -> Vec<(usize, f64)> {
        let regions = &p.probes.shape_regions;
        let spans: Vec<_> = regions.iter().map(|&(_, s, e)| (s, e)).collect();
        let floors = astra_lint::region_floors(&p.sched, &spans, topo, &|_, _| None);
        let var =
            |(&(sh, _, _), f): (&(GemmShape, _, _), f64)| Some((*self.shape_var.get(&sh)?, f));
        regions.iter().zip(floors).filter_map(var).collect()
    }
}

/// Phase S: stream scheduling — super-epochs explore in parallel (barriers
/// make them independent), the epochs of a super-epoch prefix-wise, and
/// equivalence classes collapse each epoch's choices. Prefix epochs freeze
/// at their best between steps, so a batch's candidates share the schedule
/// prefix up to the epoch under exploration.
pub(crate) struct StreamPhase<'a> {
    /// Epoch ids `se{sei}.e{ei}`, in id (string) order.
    vars: Vec<String>,
    /// `(super-epoch, epoch)` per variable.
    pos: Vec<(usize, usize)>,
    pos_var: BTreeMap<(usize, usize), usize>,
    /// Stream assignment choices per variable.
    opts: Vec<Vec<EpochAssignment>>,
    /// Assignments of the single-choice epochs, applied statically.
    fixed: Vec<(UnitId, usize)>,
    root: UpdateNode,
    units: Arc<[Unit]>,
    partition: &'a Partition,
    flops_of: BTreeMap<UnitId, f64>,
    cx: Contexts<'a>,
    probes: ProbeSpec,
}

impl<'a> StreamPhase<'a> {
    /// The epochs of `partition` with more than one stream choice. Epochs
    /// with one choice get no variable and no probe; when no epoch has a
    /// choice, `cfg` takes the static assignment and the result is `None`.
    pub(crate) fn new(
        units: Arc<[Unit]>,
        partition: &'a Partition,
        cfg: &mut ExecConfig,
        cx: Contexts<'a>,
    ) -> Option<Self> {
        let mut by_id = BTreeMap::new();
        let mut fixed = Vec::new();
        let mut se_children = Vec::new();
        for (sei, se) in partition.super_epochs.iter().enumerate() {
            let mut epoch_vars = Vec::new();
            for (ei, epoch) in se.epochs.iter().enumerate() {
                let choices = epoch_choices(&units, epoch, cfg.num_streams);
                if choices.len() <= 1 {
                    fixed.extend(choices.into_iter().flatten());
                    continue;
                }
                let id = format!("se{sei}.e{ei}");
                epoch_vars.push(UpdateNode::var(id.clone(), choices.len()));
                by_id.insert(id, ((sei, ei), choices));
            }
            if !epoch_vars.is_empty() {
                se_children.push(UpdateNode::group(ExploreMode::Prefix, epoch_vars));
            }
        }
        if se_children.is_empty() {
            cfg.streams = fixed.into_iter().collect();
            return None;
        }
        let (mut vars, mut pos, mut opts) = (Vec::new(), Vec::new(), Vec::new());
        for (id, (p, choices)) in by_id {
            vars.push(id);
            pos.push(p);
            opts.push(choices);
        }
        Some(StreamPhase {
            pos_var: pos.iter().enumerate().map(|(v, &p)| (p, v)).collect(),
            probes: ProbeSpec::epochs(pos.iter().copied().collect::<HashSet<_>>()),
            vars,
            pos,
            opts,
            fixed,
            root: UpdateNode::group(ExploreMode::Parallel, se_children),
            flops_of: units.iter().map(|u| (u.id, u.flops)).collect(),
            units,
            partition,
            cx,
        })
    }
}

impl Phase for StreamPhase<'_> {
    const KIND: &'static str = "epoch";
    /// Epoch metrics legitimately vary with later-epoch assignments
    /// (processor sharing): only a reported fault marks a suspect.
    const OUTLIER_TEST: bool = false;
    /// Frozen epochs' metrics are committed anyway, and the extra samples
    /// warm the epoch model much faster than the varying trials alone.
    const TRAIN_FROZEN: bool = true;

    fn vars(&self) -> &[String] {
        &self.vars
    }

    fn root(&self) -> UpdateNode {
        self.root.clone()
    }

    fn cfg_for(&self, base: &ExecConfig, asg: &Assignment) -> ExecConfig {
        let mut c = base.clone();
        c.streams.clear();
        c.streams.extend(self.fixed.iter().copied());
        for (v, id) in self.vars.iter().enumerate() {
            c.streams.extend(self.opts[v][asg[id]].iter().copied());
        }
        c
    }

    /// A fragmented build keeps unit ids, dependencies and order, so the
    /// partition and probes stay valid under allocation faults too.
    fn clean_units(
        &self,
        _ctx: &PlanContext<'_>,
        _cache: &mut PlanCache,
        cfgs: &[ExecConfig],
        _workers: usize,
    ) -> Result<CleanUnits, AstraError> {
        shared(&self.units, cfgs.len())
    }

    fn partition(&self) -> Option<&Partition> {
        Some(self.partition)
    }

    fn probe_spec(&self) -> &ProbeSpec {
        &self.probes
    }

    /// An epoch's metric: time from its super-epoch's start to the last
    /// kernel dispatched in any stream up to the epoch (§4.7).
    fn decode(&self, probes: &Probes, run: &RunResult) -> Vec<(usize, f64)> {
        let metric = |(pos, ends): (&(usize, usize), &Vec<_>)| {
            let start = run.event_ns.get(probes.se_starts.get(&pos.0)?)?;
            let end =
                ends.iter().filter_map(|e| run.event_ns.get(e).copied()).fold(f64::NAN, f64::max);
            let v = *self.pos_var.get(pos)?;
            end.is_finite().then(|| (v, (end - start).max(0.0)))
        };
        probes.epoch_ends.iter().filter_map(metric).collect()
    }

    fn key(&self, v: usize, choice: usize) -> ProfileKey {
        profile_key(format!("epoch:{}", self.vars[v]), choice, &[self.cx.strat, self.cx.bucket])
    }

    /// Epochs whose choice varies across the batch. Frozen (prefix-fixed)
    /// epochs carry no features: their metrics commit, but never drive
    /// pruning.
    fn active(&self, batch: &[Assignment]) -> Vec<usize> {
        let varies = |id: &String| batch.iter().any(|asg| asg[id] != batch[0][id]);
        (0..self.vars.len()).filter(|&v| varies(&self.vars[v])).collect()
    }

    fn features(&self, cfg: &ExecConfig, topo_fp: u64, v: usize, choice: usize) -> FeatureVec {
        let (sei, ei) = self.pos[v];
        epoch_features(cfg, topo_fp, sei, ei, choice, &self.opts[v][choice], &self.flops_of)
    }

    /// The epoch's span floor: the longest happens-before path from the
    /// super-epoch start record to any of the epoch's end records. The
    /// metric is a max over those ends, so one reachable end bounds it.
    fn floors(&self, p: &Prepared, active: &[usize], topo: &Topology) -> Vec<(usize, f64)> {
        let (mut vs, mut spans) = (Vec::new(), Vec::new());
        for &v in active {
            let (sei, ei) = self.pos[v];
            let start = p.probes.se_starts.get(&sei);
            let (Some(&start), Some(ends)) = (start, p.probes.epoch_ends.get(&(sei, ei))) else {
                continue;
            };
            vs.push(v);
            spans.push((start, ends.as_slice()));
        }
        let floors = astra_lint::span_floors(&p.sched, &spans, topo, &|_, _| None);
        vs.into_iter().zip(floors).collect()
    }
}

/// Phase P: one parallel variable over the node's candidate placements —
/// single-device, data-parallel batch splits and model-parallel cuts —
/// whose metric is the whole mini-batch time. Keys fold the topology
/// fingerprint, so a shared index never leaks timings across device mixes.
pub(crate) struct PlacementPhase<'a> {
    vars: [String; 1],
    candidates: Vec<DevicePlacement>,
    /// `place:{topology fingerprint}`.
    entity: String,
    cx: Contexts<'a>,
    units: Arc<[Unit]>,
    sync_bytes: u64,
    probes: ProbeSpec,
}

impl<'a> PlacementPhase<'a> {
    /// The placement variable over `candidates` for a configuration with
    /// `units`. `None` when there is nothing to choose between, or when
    /// every candidate is already indexed (`cfg` then takes the best).
    pub(crate) fn new(
        ctx: &PlanContext<'_>,
        index: &ProfileIndex,
        cfg: &mut ExecConfig,
        topo: &Topology,
        units: Arc<[Unit]>,
        candidates: Vec<DevicePlacement>,
        cx: Contexts<'a>,
    ) -> Option<Self> {
        let phase = PlacementPhase {
            vars: ["placement".to_owned()],
            entity: format!("place:{:016x}", topo.fingerprint()),
            cx,
            units,
            sync_bytes: gradient_sync_bytes(ctx.graph),
            probes: ProbeSpec::none(),
            candidates,
        };
        let n = phase.candidates.len();
        if n <= 1 {
            return None;
        }
        let key = |c| phase.key(0, c);
        if (0..n).all(|c| index.contains(&key(c))) {
            let (best, _) = index.best_choice(key, n).expect("all hits");
            cfg.placement = phase.candidates[best].clone();
            return None;
        }
        Some(phase)
    }
}

impl Phase for PlacementPhase<'_> {
    const KIND: &'static str = "place";

    fn vars(&self) -> &[String] {
        &self.vars
    }

    fn root(&self) -> UpdateNode {
        parallel_root(&self.vars, |_| self.candidates.len())
    }

    fn cfg_for(&self, base: &ExecConfig, asg: &Assignment) -> ExecConfig {
        ExecConfig { placement: self.candidates[asg[&self.vars[0]]].clone(), ..base.clone() }
    }

    fn clean_units(
        &self,
        _ctx: &PlanContext<'_>,
        _cache: &mut PlanCache,
        cfgs: &[ExecConfig],
        _workers: usize,
    ) -> Result<CleanUnits, AstraError> {
        shared(&self.units, cfgs.len())
    }

    fn probe_spec(&self) -> &ProbeSpec {
        &self.probes
    }

    fn decode(&self, _probes: &Probes, run: &RunResult) -> Vec<(usize, f64)> {
        vec![(0, run.total_ns)]
    }

    fn key(&self, _v: usize, choice: usize) -> ProfileKey {
        profile_key(self.entity.clone(), choice, &[self.cx.strat, self.cx.bucket])
    }

    fn features(&self, cfg: &ExecConfig, topo_fp: u64, _v: usize, _choice: usize) -> FeatureVec {
        placement_features(cfg, topo_fp, &self.units, self.sync_bytes)
    }

    /// The metric is the mini-batch time itself, so the critical-path floor
    /// over the emitted wiring bounds it directly.
    fn floors(&self, p: &Prepared, _active: &[usize], topo: &Topology) -> Vec<(usize, f64)> {
        vec![(0, astra_lint::critical_path_floor(&p.sched, topo, &|_, _| None))]
    }
}
