//! The two STI workloads: `nhtsa_sweep` (offline characterization over
//! LBC episode snapshots) and `contested_crowd` (crowds where most actors
//! carry blame).
//!
//! A unit is one `StiEvaluator::evaluate` call on one scene. The traced run
//! rebuilds each evaluation from the public reach functions, in the order
//! `evaluate` calls them, and asserts that the assembled result is
//! bit-identical to `evaluate`'s.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use iprism_agents::LbcAgent;
use iprism_map::RoadMap;
use iprism_reach::{
    compute_reach_tube_cached, compute_reach_tube_traced, patch_counterfactual, ReachConfig,
    SliceCache,
};
use iprism_risk::{SceneSnapshot, Sti, StiEvaluator};
use iprism_scenarios::{sample_instances, Typology};
use iprism_sim::run_episode;
use iprism_units::{Meters, Seconds};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use crate::crowd;
use crate::spans::{self, SpanRecorder};
use crate::{Outcome, Report};

/// `nhtsa_sweep`: instances sampled per typology.
const NHTSA_INSTANCES: usize = 60;
/// `nhtsa_sweep`: trace steps between consecutive snapshots of an episode.
const NHTSA_STRIDE: usize = 5;
/// `nhtsa_sweep`: evaluations in the set-up warm-up pass.
const NHTSA_WARMUP: usize = 300;
/// `contested_crowd`: scenes in the pool the run cycles through.
const CROWD_SCENES: usize = 192;
/// `contested_crowd`: evaluations in the set-up warm-up pass.
const CROWD_WARMUP: usize = 12;
/// Every `ORACLE_EVERY`-th distinct scene is checked against full rebuilds.
const NHTSA_ORACLE_EVERY: usize = 250;
const CROWD_ORACLE_EVERY: usize = 24;

/// A prepared STI workload: scenes (each on one of `maps`) in a seeded
/// order, the evaluator configuration and its thread count.
#[derive(Debug)]
pub struct StiWorkload {
    maps: Vec<RoadMap>,
    scenes: Vec<(usize, SceneSnapshot)>,
    config: ReachConfig,
    threads: usize,
    oracle_every: usize,
    /// Wall time of every LBC episode run during set-up (ms).
    pub episode_ms: Vec<f64>,
    /// `contested_crowd` only: interacting and blamed actors over the pool.
    pub census: Option<crowd::Contest>,
}

/// The `reach` configuration `evaluate` uses for `scene` (the evaluator's
/// private per-scene override of start time and ego footprint).
pub fn scene_config(config: &ReachConfig, scene: &SceneSnapshot) -> ReachConfig {
    let mut cfg = config.at_time(Seconds::new(scene.time));
    cfg.ego_dims = (Meters::new(scene.ego_dims.0), Meters::new(scene.ego_dims.1));
    cfg
}

impl StiWorkload {
    /// `nhtsa_sweep` set-up: LBC episodes of every NHTSA typology, their
    /// snapshots, and a warm-up pass. Memo off, one thread.
    pub fn nhtsa(seed: u64) -> Self {
        let config = ReachConfig::default();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut maps = Vec::new();
        let mut scenes = Vec::new();
        let mut episode_ms = Vec::new();
        for typology in Typology::NHTSA {
            for spec in sample_instances(typology, NHTSA_INSTANCES, seed) {
                let mut world = spec.build_world();
                let start = Instant::now();
                let result =
                    run_episode(&mut world, &mut LbcAgent::default(), &spec.episode_config());
                episode_ms.push(start.elapsed().as_secs_f64() * 1e3);
                let trace = result.trace;
                let horizon_steps = (config.horizon.get() / trace.dt()).ceil() as usize;
                let offset = rng.gen_range(0..NHTSA_STRIDE);
                for i in (offset..trace.len()).step_by(NHTSA_STRIDE) {
                    if let Some(scene) = SceneSnapshot::from_trace(&trace, i, horizon_steps) {
                        scenes.push((maps.len(), scene));
                    }
                }
                maps.push(world.map().clone());
            }
        }
        shuffle(&mut scenes, &mut rng);
        let workload = StiWorkload {
            maps,
            scenes,
            config,
            threads: 1,
            oracle_every: NHTSA_ORACLE_EVERY,
            episode_ms,
            census: None,
        };
        workload.warm_up(NHTSA_WARMUP);
        workload
    }

    /// `contested_crowd` set-up: seeded crowd scenes, each asserted
    /// contested, and a warm-up pass. Memo off, fan-out on every CPU, the
    /// in-loop reach preset.
    pub fn contested(seed: u64) -> Self {
        let config = crowd::crowd_config();
        let map = crowd::crowd_map();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let generated = crowd::contested_scenes(&mut rng, CROWD_SCENES, &map, &config);
        let census = generated.iter().fold(
            crowd::Contest {
                interacting: 0,
                blamed: 0,
            },
            |acc, (_, c)| crowd::Contest {
                interacting: acc.interacting + c.interacting,
                blamed: acc.blamed + c.blamed,
            },
        );
        assert!(
            census.is_contested(),
            "crowd pool is not contested: {census:?}"
        );
        let workload = StiWorkload {
            maps: vec![map],
            scenes: generated.into_iter().map(|(s, _)| (0, s)).collect(),
            config,
            threads: std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
            oracle_every: CROWD_ORACLE_EVERY,
            episode_ms: Vec::new(),
            census: Some(census),
        };
        workload.warm_up(CROWD_WARMUP);
        workload
    }

    /// STI fan-out threads of this workload.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Distinct scenes the run cycles through.
    pub fn scene_count(&self) -> usize {
        self.scenes.len()
    }

    fn evaluator(&self) -> StiEvaluator {
        StiEvaluator::new(self.config.clone()).with_threads(self.threads)
    }

    fn warm_up(&self, units: usize) {
        let evaluator = self.evaluator();
        for (map, scene) in self.scenes.iter().take(units) {
            std::hint::black_box(evaluator.evaluate(&self.maps[*map], scene));
        }
    }

    /// The untraced timed run: evaluates scenes in the seeded order, cycling
    /// the pool, until `seconds` have passed. Afterwards a deterministic
    /// sample of scenes is checked against full rebuilds.
    pub fn run(&self, seconds: f64) -> Outcome {
        let evaluator = self.evaluator();
        let mut latencies = Vec::with_capacity(1 << 16);
        let mut sampled: Vec<(usize, Sti)> = Vec::new();
        let mut failed = 0usize;
        let start = Instant::now();
        let mut unit = 0usize;
        while start.elapsed().as_secs_f64() < seconds {
            let index = unit % self.scenes.len();
            let (map, scene) = &self.scenes[index];
            let t0 = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                evaluator.evaluate(&self.maps[*map], scene)
            }));
            latencies.push(t0.elapsed().as_secs_f64());
            match result {
                Ok(sti) if sti_in_range(&sti) => {
                    if unit == index && index.is_multiple_of(self.oracle_every) {
                        sampled.push((index, sti));
                    }
                }
                _ => failed += 1,
            }
            unit += 1;
        }
        let elapsed = start.elapsed().as_secs_f64();
        let mut checked = 0;
        for (index, sti) in &sampled {
            let (map, scene) = &self.scenes[*index];
            checked += 1;
            if !same_bits(
                &rebuild_volumes(&self.maps[*map], scene, &self.config).sti(scene),
                sti,
            ) {
                eprintln!("oracle mismatch on scene {index}");
                failed += 1;
            }
        }
        Outcome {
            attempted: latencies.len(),
            failed,
            elapsed_s: elapsed,
            latencies_s: latencies,
            oracle_checks: checked,
        }
    }

    /// The traced run: units that time `evaluate` and its decomposition
    /// into reach calls, each span recorded in memory. Every unit also runs
    /// the decomposition without inner spans, in alternating order, which
    /// gives the tracing overhead on the same scenes.
    pub fn run_traced(&self, seconds: f64, rec: &mut SpanRecorder) -> (Outcome, Report) {
        let evaluator = self.evaluator();
        let mut failed = 0usize;
        let mut attempted = 0usize;
        let mut reachable = 0usize;
        let mut blamed = 0usize;
        let mut factual_states = 0usize;
        let mut sampled: Vec<(usize, Vec<f64>)> = Vec::new();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let index = attempted % self.scenes.len();
            let (map, scene) = &self.scenes[index];
            let map = &self.maps[*map];
            let id = attempted as u64;
            let u = rec.begin("unit", id);
            let result = catch_unwind(AssertUnwindSafe(|| {
                let sti = rec.time("risk.evaluate", id, || evaluator.evaluate(map, scene));
                let untraced = |rec: &mut SpanRecorder| {
                    rec.time(UNTRACED_DECOMPOSE, id, || {
                        decompose(map, scene, &self.config, None, id)
                    })
                };
                let first = id.is_multiple_of(2).then(|| untraced(rec));
                let d = rec.begin(TRACED_DECOMPOSE, id);
                let parts = decompose(map, scene, &self.config, Some(&mut *rec), id);
                rec.end(d);
                let plain = first.unwrap_or_else(|| untraced(rec));
                (sti, parts, plain)
            }));
            rec.end(u);
            attempted += 1;
            match result {
                Ok((sti, parts, plain))
                    if sti_in_range(&sti)
                        && same_bits(&parts.volumes.sti(scene), &sti)
                        && parts.volumes.same_bits(&plain.volumes) =>
                {
                    reachable += parts.reachable;
                    blamed += parts.blamed;
                    factual_states += parts.factual_states;
                    if attempted - 1 == index && index.is_multiple_of(self.oracle_every) {
                        sampled.push((index, parts.volumes.without));
                    }
                }
                Ok(_) => {
                    eprintln!("decomposition of scene {index} differs from evaluate");
                    failed += 1;
                }
                Err(_) => failed += 1,
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        for (index, v_without) in &sampled {
            let (map, scene) = &self.scenes[*index];
            let rebuilt = rebuild_volumes(&self.maps[*map], scene, &self.config).without;
            if !bits_equal(&rebuilt, v_without) {
                eprintln!("patched volumes of scene {index} differ from rebuilds");
                failed += 1;
            }
        }

        let spans = rec.spans();
        let units = attempted.max(1) as f64;
        let per_unit_ms = |name: &str| spans::total_ns(spans, name) as f64 / 1e6 / units;
        let evaluate_ns = spans::total_ns(spans, "risk.evaluate") as f64;
        let mut report = Report::default();
        report.time_ms("reach.slice_cache_ms", per_unit_ms("reach.slice_cache"));
        report.time_ms("reach.traced_build_ms", per_unit_ms("reach.traced_build"));
        report.time_ms("reach.empty_build_ms", per_unit_ms("reach.empty_build"));
        report.time_ms("reach.patch_ms", per_unit_ms("reach.patch"));
        report.count(
            "reach.patches",
            spans::count(spans, "reach.patch") as f64 / units,
        );
        report.ratio(
            "reach.patch_blamed_ratio",
            blamed as f64 / reachable.max(1) as f64,
        );
        report.count("reach.factual_states", factual_states as f64 / units);
        report.time_ms("risk.evaluate_ms", per_unit_ms("risk.evaluate"));
        report.ratio(
            "risk.fanout_gain",
            spans::total_ns(spans, TRACED_DECOMPOSE) as f64 / evaluate_ns.max(1.0),
        );
        if !self.episode_ms.is_empty() {
            report.time_ms("sim.episode_ms", crate::mean(&self.episode_ms));
        }
        let rate = |name: &str| units / (spans::total_ns(spans, name) as f64 / 1e9).max(1e-9);
        report.rate("trace.untraced_units_per_s", rate(UNTRACED_DECOMPOSE));
        report.rate("trace.traced_units_per_s", rate(TRACED_DECOMPOSE));
        let outcome = Outcome {
            attempted,
            failed,
            elapsed_s: elapsed,
            latencies_s: Vec::new(),
            oracle_checks: sampled.len(),
        };
        (outcome, report)
    }
}

/// Every STI value finite and within `[0, 1]`.
fn sti_in_range(sti: &Sti) -> bool {
    let ok = |v: f64| v.is_finite() && (0.0..=1.0).contains(&v);
    ok(sti.combined) && sti.per_actor.iter().all(|&(_, v)| ok(v))
}

/// `numerator / |T^∅|` clamped into `[0, 1]`, 0 without escape routes
/// (Eq. 4–5 as `evaluate` computes them).
fn sti_ratio(numerator: f64, v_empty: f64) -> f64 {
    if v_empty <= 0.0 {
        return 0.0;
    }
    (numerator / v_empty).clamp(0.0, 1.0)
}

/// Tube volumes of one evaluation: factual, empty, and one counterfactual
/// per actor (the factual volume for actors the ego cannot reach).
#[derive(Debug, Clone, PartialEq)]
struct Volumes {
    all: f64,
    empty: f64,
    without: Vec<f64>,
}

impl Volumes {
    fn same_bits(&self, other: &Volumes) -> bool {
        bits_equal(&[self.all, self.empty], &[other.all, other.empty])
            && bits_equal(&self.without, &other.without)
    }

    fn sti(&self, scene: &SceneSnapshot) -> Sti {
        Sti {
            combined: sti_ratio(self.empty - self.all, self.empty),
            per_actor: scene
                .actors
                .iter()
                .zip(&self.without)
                .map(|(a, &v)| (a.id, sti_ratio(v - self.all, self.empty)))
                .collect(),
            volume_all: self.all,
            volume_empty: self.empty,
        }
    }
}

/// The reference oracle: every tube rebuilt from scratch with
/// `compute_reach_tube_cached`.
fn rebuild_volumes(map: &RoadMap, scene: &SceneSnapshot, config: &ReachConfig) -> Volumes {
    let cfg = scene_config(config, scene);
    let obstacles = scene.obstacles();
    let cache = SliceCache::new(&obstacles, &cfg);
    let all: Vec<usize> = (0..obstacles.len()).collect();
    let volume =
        |active: &[usize]| compute_reach_tube_cached(map, scene.ego, &cache, active, &cfg).volume();
    Volumes {
        all: volume(&all),
        empty: volume(&[]),
        without: all
            .iter()
            .map(|&skip| {
                let reduced: Vec<usize> = all.iter().copied().filter(|&j| j != skip).collect();
                volume(&reduced)
            })
            .collect(),
    }
}

/// Bit-for-bit equality of two value lists.
fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Bit-for-bit equality of two STI results.
fn same_bits(a: &Sti, b: &Sti) -> bool {
    let ids = |s: &Sti| s.per_actor.iter().map(|&(id, _)| id).collect::<Vec<_>>();
    let values = |s: &Sti| {
        let mut v = vec![s.combined, s.volume_all, s.volume_empty];
        v.extend(s.per_actor.iter().map(|&(_, x)| x));
        v
    };
    ids(a) == ids(b) && bits_equal(&values(a), &values(b))
}

/// One evaluation rebuilt from its public parts.
struct Parts {
    volumes: Volumes,
    reachable: usize,
    blamed: usize,
    factual_states: usize,
}

/// Spans of one whole decomposition, with and without the spans of its
/// calls.
const TRACED_DECOMPOSE: &str = "risk.decompose";
const UNTRACED_DECOMPOSE: &str = "risk.decompose_untraced";

/// Runs `f`, in a span named `name` when `rec` records.
fn timed<R>(
    rec: &mut Option<&mut SpanRecorder>,
    name: &'static str,
    id: u64,
    f: impl FnOnce() -> R,
) -> R {
    match rec {
        Some(rec) => rec.time(name, id, f),
        None => f(),
    }
}

/// `evaluate` reproduced call by call, each call in its own span when `rec`
/// records: slice cache, interaction filter, traced factual build, empty
/// build, and one patch per reachable actor.
fn decompose(
    map: &RoadMap,
    scene: &SceneSnapshot,
    config: &ReachConfig,
    mut rec: Option<&mut SpanRecorder>,
    id: u64,
) -> Parts {
    let rec = &mut rec;
    let cfg = scene_config(config, scene);
    let obstacles = timed(rec, "risk.obstacles", id, || scene.obstacles());
    let cache = timed(rec, "reach.slice_cache", id, || {
        SliceCache::new(&obstacles, &cfg)
    });
    let n = obstacles.len();
    let all: Vec<usize> = (0..n).collect();
    let reachable: Vec<usize> = timed(rec, "reach.interacts", id, || {
        all.iter()
            .copied()
            .filter(|&i| cache.interacts(i, &scene.ego))
            .collect()
    });
    let (ftube, blame) = timed(rec, "reach.traced_build", id, || {
        compute_reach_tube_traced(map, scene.ego, &cache, &all, &cfg)
    });
    let v_all = ftube.volume();
    let v_empty = timed(rec, "reach.empty_build", id, || {
        compute_reach_tube_cached(map, scene.ego, &cache, &[], &cfg).volume()
    });
    let mut without = vec![v_all; n];
    let mut blamed = 0;
    for &i in &reachable {
        without[i] = timed(rec, "reach.patch", id, || {
            patch_counterfactual(map, &ftube, &blame, &cache, i, &cfg).volume()
        });
        blamed += usize::from(!blame.is_unblamed(i));
    }
    Parts {
        volumes: Volumes {
            all: v_all,
            empty: v_empty,
            without,
        },
        reachable: reachable.len(),
        blamed,
        factual_states: ftube.state_count(),
    }
}

/// Fisher–Yates shuffle driven by the workload seed.
fn shuffle<T>(items: &mut [T], rng: &mut ChaCha8Rng) {
    for i in (1..items.len()).rev() {
        let j = rng.gen_range(0..i + 1);
        items.swap(i, j);
    }
}
