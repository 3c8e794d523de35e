//! Seeded generator of contested crowd scenes.
//!
//! A contested scene asks for 16–64 pedestrians and cyclists on a six-lane
//! road and places each one against the side of the ego's empty-world reach
//! tube at some time slice, so most of them block some escape route while
//! the tube keeps a way through. Placement keeps members 1.5 m apart within
//! 0.3 s of each other, which caps a scene at the tube's edge capacity (in
//! practice about 55 members). The per-actor counterfactuals then differ
//! from the factual tube, and the patch kernel, not its unblamed-actor
//! short cut, does the work.

use iprism_dynamics::{Trajectory, VehicleState};
use iprism_map::RoadMap;
use iprism_reach::{compute_reach_tube_cached, compute_reach_tube_traced, ReachConfig, SliceCache};
use iprism_risk::{SceneActor, SceneSnapshot};
use iprism_sim::ActorId;
use iprism_units::Seconds;
use rand::Rng;
use rand_chacha::ChaCha8Rng;

use crate::sti::scene_config;

/// Fewest actors in a crowd scene.
pub const MIN_ACTORS: usize = 16;
/// Most actors a crowd scene asks for.
pub const MAX_ACTORS: usize = 64;
/// Lanes of the crowd road.
const LANES: usize = 6;
const LANE_WIDTH: f64 = 3.5;
const EGO_X: f64 = 100.0;
/// Trajectory sampling period and length (covers the 2.5 s horizon).
const TRAJ_DT: f64 = 0.25;
const TRAJ_STATES: usize = 13;
/// Smallest start distance between two crowd members (m).
const MIN_SPACING: f64 = 1.5;
/// Members targeting slices further apart than this (s) need no spacing.
const SPACING_WINDOW: f64 = 0.3;
const EGO_LENGTH: f64 = 4.6;
const EGO_WIDTH: f64 = 2.0;
/// Placement attempts per requested actor.
const PLACEMENT_TRIES: usize = 40;
/// Earliest tube slice a crowd member is placed against.
const FIRST_SLICE: usize = 4;
/// Share of cyclists; the rest are pedestrians.
const CYCLIST_SHARE: f64 = 0.7;
/// Candidate scenes per accepted scene before generation gives up.
const MAX_TRIES: usize = 8;

/// The road every crowd scene uses.
pub fn crowd_map() -> RoadMap {
    RoadMap::straight_road(LANES, LANE_WIDTH, 400.0)
}

/// The reach configuration of the crowd workload: the SMC's in-loop preset,
/// since a crowd is judged per decision, online.
pub fn crowd_config() -> ReachConfig {
    ReachConfig::fast()
}

/// Blame census of one scene: actors the ego can interact with, and how
/// many of those carry blame in the traced factual build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Contest {
    /// Actors `SliceCache::interacts` keeps.
    pub interacting: usize,
    /// Interacting actors that blocked at least one expansion.
    pub blamed: usize,
}

impl Contest {
    /// At least half of the interacting actors carry blame (and some do).
    pub fn is_contested(&self) -> bool {
        self.blamed > 0 && 2 * self.blamed >= self.interacting
    }
}

/// Counts interacting and blamed actors of `scene` with one traced build.
pub fn contest(map: &RoadMap, scene: &SceneSnapshot, config: &ReachConfig) -> Contest {
    let cfg = scene_config(config, scene);
    let obstacles = scene.obstacles();
    let cache = SliceCache::new(&obstacles, &cfg);
    let all: Vec<usize> = (0..obstacles.len()).collect();
    let (_, blame) = compute_reach_tube_traced(map, scene.ego, &cache, &all, &cfg);
    let interacting: Vec<usize> = all
        .iter()
        .copied()
        .filter(|&i| cache.interacts(i, &scene.ego))
        .collect();
    Contest {
        interacting: interacting.len(),
        blamed: interacting
            .iter()
            .filter(|&&i| !blame.is_unblamed(i))
            .count(),
    }
}

/// One candidate crowd scene: cyclists and pedestrians that each clip the
/// edge of the ego's empty-world reach tube at one time slice. Each one
/// blocks some reachable states, yet the tube keeps a way through.
fn candidate(rng: &mut ChaCha8Rng, map: &RoadMap, config: &ReachConfig) -> SceneSnapshot {
    let lane = rng.gen_range(2..LANES - 2);
    let ego_y = (lane as f64 + 0.5) * LANE_WIDTH;
    let ego = VehicleState::new(EGO_X, ego_y, 0.0, rng.gen_range(6.0..10.0));
    let mut scene = SceneSnapshot::new(0.0, ego, (EGO_LENGTH, EGO_WIDTH));
    let cfg = scene_config(config, &scene);
    let empty = compute_reach_tube_cached(map, ego, &SliceCache::new(&[], &cfg), &[], &cfg);
    // Per slice from `FIRST_SLICE` on: its laterally outermost quarter of
    // states. The crowd narrows the tube from its sides instead of cutting
    // its core.
    let outer: Vec<(usize, Vec<VehicleState>)> = empty
        .slices()
        .iter()
        .enumerate()
        .skip(FIRST_SLICE)
        .map(|(k, slice)| {
            let offset = |s: &VehicleState| (s.y - ego_y).abs();
            let mut offsets: Vec<f64> = slice.iter().map(|s| offset(&s)).collect();
            offsets.sort_by(f64::total_cmp);
            let edge = offsets.get(offsets.len() * 3 / 4).copied().unwrap_or(0.0);
            (
                k,
                slice
                    .iter()
                    .filter(|s| offset(s) >= edge)
                    .collect::<Vec<_>>(),
            )
        })
        .filter(|(_, states)| !states.is_empty())
        .collect();
    if outer.is_empty() {
        return scene;
    }
    let n = rng.gen_range(MIN_ACTORS..MAX_ACTORS + 1);
    let mut targets: Vec<(f64, f64, f64)> = Vec::with_capacity(n);
    for _ in 0..PLACEMENT_TRIES * n {
        if targets.len() == n {
            break;
        }
        let (k, states) = &outer[rng.gen_range(0..outer.len())];
        let state = states[rng.gen_range(0..states.len())];
        let t = *k as f64 * cfg.dt.get();
        let cyclist = rng.gen_range(0.0..1.0) < CYCLIST_SHARE;
        let (length, width, speed): (f64, f64, f64) = if cyclist {
            (1.8, 0.7, rng.gen_range(0.0..1.0))
        } else {
            (0.6, 0.6, rng.gen_range(0.0..0.5))
        };
        // Just outside the state's footprint on its outer side, overlapping
        // it by a few decimetres.
        let overlap: f64 = rng.gen_range(0.1..0.6);
        let side: f64 = if state.y >= ego_y { 1.0 } else { -1.0 };
        let tx: f64 = state.x + rng.gen_range(-1.0..1.0);
        let ty = state.y + side * (0.5 * (EGO_WIDTH + width) - overlap);
        let spaced = targets.iter().all(|&(x, y, tt)| {
            (x - tx).hypot(y - ty) >= MIN_SPACING || (tt - t).abs() > SPACING_WINDOW
        });
        if !spaced {
            continue;
        }
        targets.push((tx, ty, t));
        let heading: f64 = rng.gen_range(-0.3..0.3);
        let (s, c) = heading.sin_cos();
        let (x0, y0) = (tx - c * speed * t, ty - s * speed * t);
        let states = (0..TRAJ_STATES)
            .map(|j| {
                let tj = j as f64 * TRAJ_DT;
                VehicleState::new(x0 + c * speed * tj, y0 + s * speed * tj, heading, speed)
            })
            .collect();
        scene.actors.push(SceneActor::new(
            ActorId(targets.len() as u32),
            Trajectory::from_states(Seconds::new(0.0), Seconds::new(TRAJ_DT), states),
            length,
            width,
        ));
    }
    scene
}

/// `count` contested crowd scenes drawn from `rng`, each with its blame
/// census.
///
/// # Panics
///
/// Panics when a scene is still uncontested after `MAX_TRIES` candidates:
/// the generator must hand the benchmark contested scenes only.
pub fn contested_scenes(
    rng: &mut ChaCha8Rng,
    count: usize,
    map: &RoadMap,
    config: &ReachConfig,
) -> Vec<(SceneSnapshot, Contest)> {
    (0..count)
        .map(|_| {
            (0..MAX_TRIES)
                .map(|_| {
                    let scene = candidate(rng, map, config);
                    let census = contest(map, &scene, config);
                    (scene, census)
                })
                .find(|(scene, census)| scene.actors.len() >= MIN_ACTORS && census.is_contested())
                .unwrap_or_else(|| panic!("no contested crowd scene in {MAX_TRIES} candidates"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn scenes_are_contested_and_sized() {
        let map = crowd_map();
        let config = crowd_config();
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        for (scene, census) in contested_scenes(&mut rng, 4, &map, &config) {
            assert!((MIN_ACTORS..=MAX_ACTORS).contains(&scene.actors.len()));
            assert!(census.is_contested(), "{census:?}");
            assert_eq!(census, contest(&map, &scene, &config));
        }
    }

    #[test]
    fn generation_is_seeded() {
        let map = crowd_map();
        let config = crowd_config();
        let a = contested_scenes(&mut ChaCha8Rng::seed_from_u64(5), 2, &map, &config);
        let b = contested_scenes(&mut ChaCha8Rng::seed_from_u64(5), 2, &map, &config);
        assert_eq!(a, b);
    }

    #[test]
    fn unblamed_crowd_is_not_contested() {
        // Parked behind the ego but inside its interaction box: every
        // member interacts, none can block a forward escape route.
        let map = crowd_map();
        let config = crowd_config();
        let ego = VehicleState::new(EGO_X, 1.5 * LANE_WIDTH + LANE_WIDTH, 0.0, 8.0);
        let mut scene = SceneSnapshot::new(0.0, ego, (EGO_LENGTH, EGO_WIDTH));
        for i in 0..MIN_ACTORS {
            let state = VehicleState::new(EGO_X - 10.0 - 2.0 * i as f64, 1.0, 0.0, 0.0);
            scene.actors.push(SceneActor::new(
                ActorId(i as u32 + 1),
                Trajectory::from_states(
                    Seconds::new(0.0),
                    Seconds::new(TRAJ_DT),
                    vec![state; TRAJ_STATES],
                ),
                0.6,
                0.6,
            ));
        }
        let census = contest(&map, &scene, &config);
        assert_eq!(census.interacting, MIN_ACTORS);
        assert_eq!(census.blamed, 0);
        assert!(!census.is_contested());
    }

    #[test]
    fn contest_threshold() {
        let c = |interacting, blamed| Contest {
            interacting,
            blamed,
        };
        assert!(c(10, 5).is_contested());
        assert!(!c(10, 4).is_contested());
        assert!(!c(0, 0).is_contested());
    }
}
