//! The scenario engine: an actor population plus deterministic per-hour
//! traffic generation.
//!
//! Each `(actor, interval)` pair gets its own RNG stream derived from the
//! scenario seed, so the generated traffic is identical whether hours are
//! generated one at a time, out of order, or in parallel.

use crate::behavior::Actor;
use crate::config::TelescopeConfig;
use crate::derive_seed;
use iotscope_net::flowtuple::FlowTuple;
use iotscope_net::store::FlowStore;
use iotscope_net::time::UnixHour;
use iotscope_net::NetError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One hour of generated telescope traffic.
#[derive(Debug, Clone, PartialEq)]
pub struct HourTraffic {
    /// 1-based interval index within the window.
    pub interval: u32,
    /// Absolute hour.
    pub hour: UnixHour,
    /// The flows captured in this hour.
    pub flows: Vec<FlowTuple>,
}

impl HourTraffic {
    /// Total packets across the hour's flows.
    pub fn total_packets(&self) -> u64 {
        self.flows.iter().map(|f| u64::from(f.packets)).sum()
    }
}

/// Precomputed per-actor schedule state.
#[derive(Debug, Clone)]
struct ActorSchedule {
    /// Sum of pattern weights over active intervals (≥ onset).
    total_weight: f64,
    /// First interval with positive weight at/after onset, if any.
    first_active: Option<u32>,
}

/// An actor population bound to a telescope, ready to generate traffic.
///
/// # Example
///
/// ```
/// use iotscope_telescope::paper::{PaperScenario, PaperScenarioConfig};
///
/// let built = PaperScenario::build(PaperScenarioConfig::tiny(1));
/// let hours = built.scenario.generate();
/// assert_eq!(hours.len() as u32, built.scenario.telescope().window.num_hours());
/// ```
#[derive(Debug, Clone)]
pub struct Scenario {
    telescope: TelescopeConfig,
    seed: u64,
    actors: Vec<Actor>,
    schedules: Vec<ActorSchedule>,
}

impl Scenario {
    /// Bind `actors` to a telescope under a master seed.
    pub fn new(telescope: TelescopeConfig, seed: u64, actors: Vec<Actor>) -> Self {
        let hours = telescope.window.num_hours();
        let schedules = actors
            .iter()
            .map(|a| {
                let mut total = 0.0;
                let mut first = None;
                for i in 1..=hours {
                    if i < a.onset || i > a.retire {
                        continue;
                    }
                    let w = a.pattern.weight(i, hours);
                    if w > 0.0 && first.is_none() {
                        first = Some(i);
                    }
                    total += w;
                }
                // An actor whose pattern has no active hour at/after its
                // onset (e.g. a sparse duty cycle starting near the end of
                // the window) still gets its guaranteed discovery flow:
                // treat the onset hour itself as the single active hour.
                if total <= 0.0
                    && a.guarantee_onset_flow
                    && a.budget > 0.0
                    && a.onset <= hours
                    && a.onset <= a.retire
                {
                    first = Some(a.onset);
                }
                ActorSchedule {
                    total_weight: total,
                    first_active: first,
                }
            })
            .collect();
        Scenario {
            telescope,
            seed,
            actors,
            schedules,
        }
    }

    /// The bound telescope configuration.
    pub fn telescope(&self) -> &TelescopeConfig {
        &self.telescope
    }

    /// The actor population.
    pub fn actors(&self) -> &[Actor] {
        &self.actors
    }

    /// The master seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Expected total packets over the window (sum of actor budgets that
    /// have at least one active interval).
    pub fn expected_total_packets(&self) -> f64 {
        self.actors
            .iter()
            .zip(&self.schedules)
            .filter(|(_, s)| s.total_weight > 0.0)
            .map(|(a, _)| a.budget)
            .sum()
    }

    /// Generate the traffic of one interval (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `interval` is outside the window.
    pub fn generate_hour(&self, interval: u32) -> HourTraffic {
        let hours = self.telescope.window.num_hours();
        assert!(
            (1..=hours).contains(&interval),
            "interval {interval} outside 1..={hours}"
        );
        let hour = self
            .telescope
            .window
            .hour_of_interval(interval)
            .expect("interval validated above");
        let mut flows = Vec::new();
        for (idx, (actor, sched)) in self.actors.iter().zip(&self.schedules).enumerate() {
            if interval < actor.onset || interval > actor.retire {
                continue;
            }
            let guarantee = actor.guarantee_onset_flow && sched.first_active == Some(interval);
            if sched.total_weight <= 0.0 {
                // Pattern silent after onset: only the guaranteed
                // discovery flow (if any) is emitted, at the onset hour.
                if guarantee && actor.budget > 0.0 {
                    let mut rng = StdRng::seed_from_u64(derive_seed(
                        self.seed,
                        idx as u64,
                        u64::from(interval),
                    ));
                    actor.emit(1, &mut rng, &self.telescope, &mut flows);
                }
                continue;
            }
            let w = actor.pattern.weight(interval, hours);
            if w <= 0.0 && !guarantee {
                continue;
            }
            let expected = actor.budget * w / sched.total_weight;
            let mut rng =
                StdRng::seed_from_u64(derive_seed(self.seed, idx as u64, u64::from(interval)));
            let mut n = expected.floor() as u64;
            if rng.gen::<f64>() < expected.fract() {
                n += 1;
            }
            if n == 0 && guarantee && actor.budget > 0.0 {
                n = 1;
            }
            actor.emit(n, &mut rng, &self.telescope, &mut flows);
        }
        HourTraffic {
            interval,
            hour,
            flows,
        }
    }

    /// Generate every hour of the window, in parallel across threads.
    pub fn generate(&self) -> Vec<HourTraffic> {
        let hours = self.telescope.window.num_hours();
        let intervals: Vec<u32> = (1..=hours).collect();
        let threads = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(16)
            .min(intervals.len().max(1));
        let mut results: Vec<Option<HourTraffic>> = Vec::new();
        results.resize_with(intervals.len(), || None);
        let chunk = intervals.len().div_ceil(threads);
        crossbeam::scope(|scope| {
            for (slot, ivals) in results.chunks_mut(chunk).zip(intervals.chunks(chunk)) {
                scope.spawn(move |_| {
                    for (out, &i) in slot.iter_mut().zip(ivals) {
                        *out = Some(self.generate_hour(i));
                    }
                });
            }
        })
        .expect("generation threads do not panic");
        results
            .into_iter()
            .map(|h| h.expect("every interval generated"))
            .collect()
    }

    /// Generate and persist every hour into a [`FlowStore`].
    ///
    /// # Errors
    ///
    /// Propagates store I/O failures.
    pub fn write_to_store(&self, store: &FlowStore) -> Result<(), NetError> {
        for ht in self.generate() {
            store.write_hour(ht.hour, &ht.flows)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::ActorBehavior;
    use crate::pattern::ActivityPattern;
    use iotscope_devicedb::DeviceId;
    use std::net::Ipv4Addr;

    fn scan_actor(ip: [u8; 4], budget: f64, pattern: ActivityPattern, onset: u32) -> Actor {
        Actor {
            device: Some(DeviceId(0)),
            src_ip: Ipv4Addr::from(ip),
            behavior: ActorBehavior::TcpScan {
                ports: vec![23],
                random_port_prob: 0.0,
            },
            pattern,
            budget,
            onset,
            retire: u32::MAX,
            guarantee_onset_flow: true,
        }
    }

    fn short_scenario(actors: Vec<Actor>) -> Scenario {
        Scenario::new(TelescopeConfig::short(10), 99, actors)
    }

    #[test]
    fn budget_is_spent_in_expectation() {
        let s = short_scenario(vec![scan_actor(
            [1, 2, 3, 4],
            1000.0,
            ActivityPattern::Steady,
            1,
        )]);
        let total: u64 = s.generate().iter().map(HourTraffic::total_packets).sum();
        assert!((900..=1100).contains(&total), "total {total}");
        assert_eq!(s.expected_total_packets(), 1000.0);
    }

    #[test]
    fn onset_suppresses_early_intervals() {
        let s = short_scenario(vec![scan_actor(
            [1, 2, 3, 4],
            500.0,
            ActivityPattern::Steady,
            6,
        )]);
        for i in 1..=5 {
            assert!(s.generate_hour(i).flows.is_empty(), "interval {i}");
        }
        let total: u64 = (6..=10).map(|i| s.generate_hour(i).total_packets()).sum();
        assert!((420..=580).contains(&total), "total {total}");
    }

    #[test]
    fn onset_guarantee_emits_at_least_one_flow() {
        // Budget so small the probabilistic draw would almost surely be 0.
        let s = short_scenario(vec![scan_actor(
            [9, 9, 9, 9],
            0.001,
            ActivityPattern::Steady,
            4,
        )]);
        let h = s.generate_hour(4);
        assert!(
            !h.flows.is_empty(),
            "onset interval must carry the guaranteed discovery flow"
        );
    }

    #[test]
    fn zero_budget_actor_emits_nothing() {
        let s = short_scenario(vec![scan_actor(
            [9, 9, 9, 9],
            0.0,
            ActivityPattern::Steady,
            1,
        )]);
        let total: usize = s.generate().iter().map(|h| h.flows.len()).sum();
        assert_eq!(total, 0);
    }

    #[test]
    fn window_pattern_confines_traffic() {
        let s = short_scenario(vec![scan_actor(
            [1, 1, 1, 1],
            300.0,
            ActivityPattern::Window { start: 3, end: 4 },
            1,
        )]);
        for ht in s.generate() {
            if (3..=4).contains(&ht.interval) {
                assert!(ht.total_packets() > 100);
            } else {
                assert_eq!(ht.total_packets(), 0, "interval {}", ht.interval);
            }
        }
    }

    #[test]
    fn generate_hour_matches_generate() {
        let s = short_scenario(vec![
            scan_actor([1, 1, 1, 1], 200.0, ActivityPattern::Steady, 1),
            scan_actor(
                [2, 2, 2, 2],
                100.0,
                ActivityPattern::Duty {
                    period: 3,
                    on_hours: 1,
                    phase: 0,
                },
                2,
            ),
        ]);
        let all = s.generate();
        for ht in &all {
            assert_eq!(*ht, s.generate_hour(ht.interval));
        }
        assert_eq!(all.len(), 10);
        assert_eq!(all[0].interval, 1);
        assert_eq!(all[9].interval, 10);
    }

    #[test]
    fn same_seed_reproduces_different_seed_differs() {
        let actors = vec![scan_actor([1, 1, 1, 1], 500.0, ActivityPattern::Steady, 1)];
        let a = Scenario::new(TelescopeConfig::short(5), 1, actors.clone()).generate();
        let b = Scenario::new(TelescopeConfig::short(5), 1, actors.clone()).generate();
        let c = Scenario::new(TelescopeConfig::short(5), 2, actors).generate();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn out_of_window_interval_panics() {
        let s = short_scenario(vec![]);
        let _ = s.generate_hour(11);
    }

    mod props {
        use super::*;
        use crate::pattern::ActivityPattern;
        use proptest::prelude::*;

        fn arb_pattern() -> impl Strategy<Value = ActivityPattern> {
            prop_oneof![
                Just(ActivityPattern::Steady),
                (1u32..30, 1u32..30, 0u32..30).prop_map(|(period, on, phase)| {
                    ActivityPattern::Duty {
                        period,
                        on_hours: on,
                        phase,
                    }
                }),
                (1u32..20, 0u32..20).prop_map(|(start, len)| ActivityPattern::Window {
                    start,
                    end: start + len,
                }),
                (
                    0.0f64..0.5,
                    proptest::collection::vec((1u32..20, 0.5f64..5.0), 0..4)
                )
                    .prop_map(|(baseline, spikes)| ActivityPattern::Bursts { baseline, spikes }),
                (1u32..20, 1.0f64..4.0)
                    .prop_map(|(knee, factor)| ActivityPattern::Ramp { knee, factor }),
            ]
        }

        fn arb_actor() -> impl Strategy<Value = Actor> {
            (
                any::<u32>(),
                10.0f64..2_000.0,
                arb_pattern(),
                1u32..20,
                any::<bool>(),
            )
                .prop_map(|(ip, budget, pattern, onset, guarantee)| Actor {
                    device: Some(DeviceId(0)),
                    src_ip: Ipv4Addr::from(ip | 0x0100_0000), // never 0.x
                    behavior: ActorBehavior::TcpScan {
                        ports: vec![23],
                        random_port_prob: 0.0,
                    },
                    pattern,
                    budget,
                    onset,
                    retire: u32::MAX,
                    guarantee_onset_flow: guarantee,
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(24))]

            /// For any actor population: generation is deterministic, all
            /// flows land in the dark space, and the total packet count is
            /// near the sum of schedulable budgets.
            #[test]
            fn prop_generation_invariants(actors in proptest::collection::vec(arb_actor(), 1..8)) {
                let cfg = TelescopeConfig::short(20);
                let scenario = Scenario::new(cfg, 7, actors);
                let a = scenario.generate();
                let b = scenario.generate();
                prop_assert_eq!(&a, &b);
                let total: u64 = a.iter().map(HourTraffic::total_packets).sum();
                let expected = scenario.expected_total_packets();
                for ht in &a {
                    for f in &ht.flows {
                        prop_assert!(cfg.contains(f.dst_ip));
                        prop_assert!(f.packets >= 1);
                    }
                }
                if expected > 500.0 {
                    let ratio = total as f64 / expected;
                    prop_assert!((0.7..=1.3).contains(&ratio), "ratio {} (total {} expected {})", ratio, total, expected);
                }
            }

            /// Guaranteed actors emit at least one flow; onset is honored.
            #[test]
            fn prop_onset_and_guarantee(actor in arb_actor()) {
                let mut actor = actor;
                actor.guarantee_onset_flow = true;
                let onset = actor.onset;
                let scenario = Scenario::new(TelescopeConfig::short(20), 3, vec![actor]);
                let hours = scenario.generate();
                let first_emit = hours.iter().find(|h| !h.flows.is_empty()).map(|h| h.interval);
                prop_assert!(first_emit.is_some(), "guaranteed actor never emitted");
                prop_assert!(first_emit.unwrap() >= onset.min(20));
            }
        }
    }

    #[test]
    fn write_to_store_roundtrips() {
        use iotscope_net::store::StoreOptions;
        let dir = std::env::temp_dir().join(format!("iotscope-scen-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FlowStore::create(&dir, StoreOptions::default()).unwrap();
        let s = short_scenario(vec![scan_actor(
            [1, 1, 1, 1],
            100.0,
            ActivityPattern::Steady,
            1,
        )]);
        s.write_to_store(&store).unwrap();
        assert!(s.telescope().window.iter_hours().all(|h| store.has_hour(h)));
        let h1 = s.generate_hour(1);
        let mut from_disk = store.read_hour(h1.hour).unwrap();
        let mut expect = h1.flows.clone();
        let key = |f: &FlowTuple| {
            (
                u32::from(f.src_ip),
                u32::from(f.dst_ip),
                f.dst_port,
                f.src_port,
            )
        };
        from_disk.sort_by_key(key);
        expect.sort_by_key(key);
        assert_eq!(from_disk, expect);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
