//! The `smc_train` workload: SMC training on the ghost cut-in templates.
//!
//! A unit is one SMC decision during training: the agent's action choice
//! and learning update plus one `MitigationEnv::step`. The timed run drives
//! `iprism_rl::train` over the same environment `train_smc` builds (tube
//! memo on, no policy cache), through a wrapper that stamps each decision;
//! every training run's episode returns must equal `train_smc`'s bit for
//! bit.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

use iprism_agents::LbcAgent;
use iprism_core::{train_smc, MitigationEnv, SmcTrainConfig};
use iprism_eval::{select_training_scenarios, EvalConfig};
use iprism_risk::TubeMemo;
use iprism_rl::{train, Environment, StepOutcome};
use iprism_scenarios::Typology;
use iprism_sim::{run_episode, EpisodeConfig, World};

use crate::spans::{self, SpanRecorder};
use crate::{Outcome, Report};

/// Scenario pool and number of templates, as `ghost_cut_in_smc` selects
/// them.
const POOL: usize = 60;
const TEMPLATES: usize = 3;
/// Template selections per workload seed; timed training runs cycle
/// through them, so one run's cost does not hang on three scenarios.
const SELECTIONS: u64 = 4;
/// Episodes per timed training run.
const EPISODES: usize = 12;
/// Episodes of the set-up warm-up training run.
const WARMUP_EPISODES: usize = 3;

/// Per training run record: returns and lengths of every episode.
#[derive(Debug, Clone, Default, PartialEq)]
struct History {
    returns: Vec<f64>,
    lengths: Vec<usize>,
}

impl History {
    fn same_bits(&self, other: &History) -> bool {
        self.lengths == other.lengths
            && self.returns.len() == other.returns.len()
            && self
                .returns
                .iter()
                .zip(&other.returns)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    fn is_valid(&self, episodes: usize) -> bool {
        self.returns.len() == episodes && self.returns.iter().all(|r| r.is_finite())
    }
}

/// A prepared `smc_train` workload.
#[derive(Debug)]
pub struct SmcWorkload {
    selections: Vec<Vec<(World, EpisodeConfig)>>,
    config: SmcTrainConfig,
    /// Wall time of the LBC episode on every selected template (ms).
    pub episode_ms: Vec<f64>,
}

impl SmcWorkload {
    /// Set-up: `SELECTIONS` training-scenario selections (LBC episodes of
    /// each pool scored by STI), an LBC run of every selected template,
    /// which must end in an accident, and a short warm-up training run.
    pub fn new(seed: u64) -> Self {
        let selections: Vec<Vec<(World, EpisodeConfig)>> = (0..SELECTIONS)
            .map(|j| {
                let eval = EvalConfig {
                    seed: seed.wrapping_mul(SELECTIONS).wrapping_add(j),
                    // No policy snapshots: every training run really trains.
                    policy_dir: None,
                    ..EvalConfig::default()
                };
                let specs = select_training_scenarios(Typology::GhostCutIn, &eval, POOL, TEMPLATES);
                assert!(
                    !specs.is_empty(),
                    "seed {}: no ghost cut-in accident to train on",
                    eval.seed
                );
                specs
                    .iter()
                    .map(|s| (s.build_world(), s.episode_config()))
                    .collect()
            })
            .collect();
        let episode_ms = selections
            .iter()
            .flatten()
            .map(|(world, episode)| {
                let mut world = world.clone();
                let start = Instant::now();
                let result = run_episode(&mut world, &mut LbcAgent::default(), episode);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                assert!(
                    result.trace.first_collision_index().is_some(),
                    "a selected template must defeat the LBC baseline"
                );
                ms
            })
            .collect();
        let warm = SmcTrainConfig {
            episodes: WARMUP_EPISODES,
            ..SmcTrainConfig::default()
        };
        std::hint::black_box(train_smc(selections[0].clone(), LbcAgent::default(), &warm));
        SmcWorkload {
            selections,
            config: SmcTrainConfig {
                episodes: EPISODES,
                ..SmcTrainConfig::default()
            },
            episode_ms,
        }
    }

    /// Templates selected over all selections.
    pub fn template_count(&self) -> usize {
        self.selections.iter().map(Vec::len).sum()
    }

    /// `train_smc`'s environment over selection `j`: memo on when its
    /// templates share a map.
    fn env(&self, j: usize) -> (MitigationEnv<LbcAgent>, Option<Arc<TubeMemo>>) {
        let mut env = MitigationEnv::new(
            self.selections[j].clone(),
            LbcAgent::default(),
            self.config.env.clone(),
        );
        let memo = (self.config.empty_tube_memo && env.templates_share_map())
            .then(|| env.enable_tube_memo());
        (env, memo)
    }

    /// The reference history from `train_smc` itself on selection `j`.
    fn reference(&self, j: usize) -> History {
        let trained = train_smc(
            self.selections[j].clone(),
            LbcAgent::default(),
            &self.config,
        );
        History {
            returns: trained.episode_returns,
            lengths: trained.episode_lengths,
        }
    }

    /// The untraced timed run: whole training runs until `seconds` have
    /// passed, every decision stamped. Afterwards each run's history is
    /// checked against `train_smc`'s.
    pub fn run(&self, seconds: f64) -> Outcome {
        let mut latencies = Vec::with_capacity(1 << 14);
        let mut histories = Vec::new();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds {
            let (inner, _memo) = self.env(histories.len() % self.selections.len());
            let mut env = StampedEnv {
                inner,
                last: Instant::now(),
                reset_s: 0.0,
                latencies: &mut latencies,
            };
            match catch_unwind(AssertUnwindSafe(|| {
                train(&mut env, &self.config.ddqn, self.config.episodes)
            })) {
                Ok(trained) => histories.push(History {
                    returns: trained.episode_returns,
                    lengths: trained.episode_lengths,
                }),
                // A panicked run keeps its slot in the rotation and fails
                // the history check.
                Err(_) => histories.push(History::default()),
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        Outcome {
            attempted: latencies.len(),
            failed: self.check(&histories),
            elapsed_s: elapsed,
            latencies_s: latencies,
            oracle_checks: histories.len(),
        }
    }

    /// Failed units among `histories` (run `i` trained on selection
    /// `i % SELECTIONS`): every step of a run whose history is invalid or
    /// differs from `train_smc`'s on the same selection.
    fn check(&self, histories: &[History]) -> usize {
        let selections = self.selections.len();
        (0..selections.min(histories.len()))
            .map(|j| {
                let reference = self.reference(j);
                if !reference.is_valid(self.config.episodes) {
                    eprintln!("train_smc returned an invalid history: {reference:?}");
                    return reference.lengths.iter().sum::<usize>().max(1);
                }
                histories
                    .iter()
                    .skip(j)
                    .step_by(selections)
                    .filter(|h| !(h.is_valid(self.config.episodes) && h.same_bits(&reference)))
                    .map(|h| {
                        eprintln!("training history differs from train_smc: {h:?}");
                        h.lengths.iter().sum::<usize>().max(1)
                    })
                    .sum()
            })
            .sum()
    }

    /// The traced run: an untraced phase for the tracing-overhead baseline,
    /// then training runs whose env calls are recorded as spans.
    pub fn run_traced(&self, seconds: f64, rec: &mut SpanRecorder) -> (Outcome, Report) {
        let baseline = self.run(seconds / 3.0);
        let mut histories = Vec::new();
        let mut failed = baseline.failed;
        let mut lookups = 0usize;
        let mut entries = 0usize;
        let mut steps = 0u64;
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < seconds * 2.0 / 3.0 {
            let (inner, memo) = self.env(histories.len() % self.selections.len());
            let t = rec.begin("rl.train", steps);
            let mut env = SpannedEnv {
                inner,
                rec: &mut *rec,
                steps,
                lookups: 0,
                sti_in_observation: self.config.env.sti_in_observation,
            };
            let result = catch_unwind(AssertUnwindSafe(|| {
                train(&mut env, &self.config.ddqn, self.config.episodes)
            }));
            steps = env.steps;
            lookups += env.lookups;
            rec.end(t);
            entries += memo.map_or(0, |m| m.len());
            match result {
                Ok(trained) => histories.push(History {
                    returns: trained.episode_returns,
                    lengths: trained.episode_lengths,
                }),
                // A panicked run keeps its slot in the rotation and fails
                // the history check.
                Err(_) => histories.push(History::default()),
            }
        }
        let elapsed = start.elapsed().as_secs_f64();
        failed += self.check(&histories);

        let spans = rec.spans();
        let runs = histories.len().max(1) as f64;
        let units = steps.max(1) as f64;
        let step_ns = spans::total_ns(spans, "core.env_step") as f64;
        let reset_ns = spans::total_ns(spans, "core.env_reset") as f64;
        let train_ns = spans::total_ns(spans, "rl.train") as f64;
        let mut report = Report::default();
        report.time_ms("core.env_step_ms", step_ns / 1e6 / units);
        report.time_ms(
            "core.env_reset_ms",
            reset_ns / 1e6 / spans::count(spans, "core.env_reset").max(1) as f64,
        );
        report.time_ms(
            "rl.learner_ms",
            (train_ns - step_ns - reset_ns) / 1e6 / units,
        );
        report.count("rl.env_steps", units / runs);
        report.ratio(
            "risk.memo_hit_ratio",
            1.0 - entries as f64 / lookups.max(1) as f64,
        );
        report.count("risk.memo_entries", entries as f64 / runs);
        report.time_ms("sim.episode_ms", crate::mean(&self.episode_ms));
        report.rate(
            "trace.untraced_units_per_s",
            baseline.attempted as f64 / baseline.elapsed_s,
        );
        report.rate(
            "trace.traced_units_per_s",
            units / (train_ns / 1e9).max(1e-9),
        );
        let outcome = Outcome {
            attempted: baseline.attempted + steps as usize,
            failed,
            elapsed_s: elapsed,
            latencies_s: Vec::new(),
            oracle_checks: baseline.oracle_checks + histories.len(),
        };
        (outcome, report)
    }
}

/// Stamps the end of every decision: the time since the previous step
/// returned, less any reset in between, covers the agent's learning update
/// on the previous transition, its action choice and the env step (the
/// first decision of a training run covers the agent's construction
/// instead of an update). Only the learning update after the last step of
/// a training run falls in no unit.
struct StampedEnv<'a, E> {
    inner: E,
    last: Instant,
    /// Reset time since the previous step returned (s).
    reset_s: f64,
    latencies: &'a mut Vec<f64>,
}

impl<E: Environment> Environment for StampedEnv<'_, E> {
    fn state_dim(&self) -> usize {
        self.inner.state_dim()
    }

    fn num_actions(&self) -> usize {
        self.inner.num_actions()
    }

    fn reset(&mut self) -> Vec<f64> {
        let start = Instant::now();
        let state = self.inner.reset();
        self.reset_s += start.elapsed().as_secs_f64();
        state
    }

    fn step(&mut self, action: usize) -> StepOutcome {
        let out = self.inner.step(action);
        let now = Instant::now();
        self.latencies
            .push((now - self.last).as_secs_f64() - self.reset_s);
        self.last = now;
        self.reset_s = 0.0;
        out
    }
}

/// Records every env call as a span and counts tube-memo lookups: each
/// combined-STI query looks up the factual and the empty tube.
struct SpannedEnv<'a> {
    inner: MitigationEnv<LbcAgent>,
    rec: &'a mut SpanRecorder,
    steps: u64,
    lookups: usize,
    sti_in_observation: bool,
}

/// Memo lookups per combined-STI query (factual and empty tube).
const LOOKUPS_PER_QUERY: usize = 2;

impl Environment for SpannedEnv<'_> {
    fn state_dim(&self) -> usize {
        self.inner.state_dim()
    }

    fn num_actions(&self) -> usize {
        self.inner.num_actions()
    }

    fn reset(&mut self) -> Vec<f64> {
        let state = self
            .rec
            .time("core.env_reset", self.steps, || self.inner.reset());
        // Reset queries STI only for the observation.
        if self.sti_in_observation {
            self.lookups += LOOKUPS_PER_QUERY;
        }
        state
    }

    fn step(&mut self, action: usize) -> StepOutcome {
        let out = self
            .rec
            .time("core.env_step", self.steps, || self.inner.step(action));
        self.steps += 1;
        // A collision short-cuts the STI query (STI is 1 by definition).
        if !self.inner.world().ego_collided() {
            self.lookups += LOOKUPS_PER_QUERY;
        }
        out
    }
}
