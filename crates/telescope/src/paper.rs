//! The paper-calibrated scenario.
//!
//! [`PaperScenario::build`] turns a synthetic inventory into the actor
//! population whose aggregate traffic reproduces the published shapes:
//!
//! * §IV-C / Table V / Fig 10 — TCP scanning: Telnet ≈50% of packets, the
//!   heavy-hitter structure (7 devices driving 55% of Telnet, the SSH
//!   bursts at intervals 32/69, the single BackroomNet scanner appearing at
//!   interval 113, the steady CWMP scanners, the HTTP ramp after 92);
//! * §IV-A / Table IV / Fig 5 — UDP: broad sprayers favoring the
//!   Netcore-backdoor ports, dedicated per-port scanner groups;
//! * §IV-B / Figs 6–8 — backscatter: the 839-victim population with its
//!   long-tail packet distribution and the named DoS spike schedule;
//! * Fig 2 — the staggered onset curve (≈46% of devices discovered on day
//!   one);
//! * Fig 9b — the interval-119 port sweep (10,249 ports on 55 hosts).
//!
//! Packet budgets are the paper's per-device magnitudes multiplied by
//! `scale`; device counts are proportional to the designated population,
//! so scaled-down runs keep every relative shape.

use crate::behavior::{Actor, ActorBehavior};
use crate::config::TelescopeConfig;
use crate::ground_truth::{GroundTruth, Role};
use crate::pattern::ActivityPattern;
use crate::scenario::Scenario;
use iotscope_devicedb::synth::{InventoryBuilder, SynthConfig, SynthOutput};
use iotscope_devicedb::{ConsumerKind, CpsService, DeviceId, DeviceProfile, IotDevice, Realm};
use iotscope_net::ports::ScanService;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Configuration of a calibrated run.
#[derive(Debug, Clone)]
pub struct PaperScenarioConfig {
    /// Master seed for inventory, role assignment and traffic.
    pub seed: u64,
    /// Packet-budget multiplier relative to the paper's magnitudes
    /// (1.0 ⇒ ≈1.2×10⁸ packets; the default CLI uses 0.01).
    pub scale: f64,
    /// Inventory sizes.
    pub synth: SynthConfig,
    /// Number of non-IoT misconfiguration/noise sources (their traffic
    /// must be filtered out by correlation).
    pub noise_sources: u32,
    /// Number of *unindexed* IoT devices to plant: sources that behave
    /// like compromised IoT scanners but are absent from the inventory
    /// (the target population of the §VI fuzzy-fingerprinting follow-up).
    pub shadow_iot: u32,
    /// Number of coordinated botnets to plant among the designated
    /// scanners (each with 5-9 members sharing rare ports and a
    /// synchronized schedule; the §VII clustering target).
    pub coordinated_botnets: u32,
}

impl PaperScenarioConfig {
    /// Full paper-sized populations at the given packet scale.
    pub fn paper(seed: u64, scale: f64) -> Self {
        PaperScenarioConfig {
            seed,
            scale,
            synth: SynthConfig::paper(seed),
            noise_sources: 400,
            shadow_iot: 60,
            coordinated_botnets: 4,
        }
    }

    /// Parse a command-line `--scale`: finite and positive, else the
    /// usage message. (Zero, negative and NaN scales leave only the
    /// unscaled events; an infinite one never finishes generating.)
    ///
    /// # Errors
    ///
    /// Anything but a finite number above zero.
    pub fn parse_scale(value: &str) -> Result<f64, String> {
        match value.parse::<f64>() {
            Ok(scale) if scale.is_finite() && scale > 0.0 => Ok(scale),
            _ => Err(format!(
                "bad value for --scale: {value:?} (want a finite number > 0)"
            )),
        }
    }

    /// A small, fast configuration for tests and examples (~5.5k devices,
    /// ~1k designated, ~10⁵ packets).
    pub fn tiny(seed: u64) -> Self {
        PaperScenarioConfig {
            seed,
            scale: 0.008,
            synth: SynthConfig::small(seed),
            noise_sources: 40,
            shadow_iot: 12,
            coordinated_botnets: 2,
        }
    }
}

/// Everything `build` produces: the generator, the inventory it runs over,
/// and the ground-truth ledger for validation.
#[derive(Debug)]
pub struct BuiltScenario {
    /// The traffic generator.
    pub scenario: Scenario,
    /// The inventory (device DB + ISP registry + designation lists).
    pub inventory: SynthOutput,
    /// What was planted.
    pub truth: GroundTruth,
}

/// Builder entry point (stateless; see [`PaperScenario::build`]).
#[derive(Debug, Clone, Copy)]
pub struct PaperScenario;

// ---------------------------------------------------------------------------
// Calibration constants (unscaled, paper magnitudes).
// ---------------------------------------------------------------------------

/// Total TCP scanning packets (§IV-C: "slightly over 100M").
const TCP_SCAN_TOTAL: f64 = 100.0e6;
/// Total UDP packets (§IV-A: ≈13M).
const UDP_TOTAL: f64 = 13.0e6;
/// UDP consumer share (§IV-A1: 63%).
const UDP_CONSUMER_FRAC: f64 = 0.63;
/// Total ICMP scanning packets (§IV-C: 0.23% of traffic, ≈0.33M).
const ICMP_SCAN_TOTAL: f64 = 0.33e6;
/// ICMP scanning consumer share (§IV-C: 93%).
const ICMP_CONSUMER_FRAC: f64 = 0.93;

/// Paper population sizes used to derive role *fractions*.
const PAPER_CONSUMER_DESIGNATED: f64 = 15_299.0;
const PAPER_CPS_DESIGNATED: f64 = 11_582.0;
const PAPER_CONSUMER_VICTIMS: f64 = 394.0;
const PAPER_CPS_VICTIMS: f64 = 445.0;
const PAPER_CONSUMER_TCP_SCANNERS: f64 = 6_800.0;
const PAPER_CPS_TCP_SCANNERS: f64 = 5_563.0;
const PAPER_CONSUMER_ICMP: f64 = 32.0;
const PAPER_CPS_ICMP: f64 = 24.0;
/// §IV-A1: 25,242 UDP devices, 60% consumer ⇒ effectively every non-victim
/// consumer device and ~91% of non-victim CPS devices.
const CPS_UDP_FRAC: f64 = 0.906;

/// Table V calibration: `(service, packet share of TCP scan total,
/// consumer packet fraction, consumer devices, cps devices)` at paper
/// scale.
const SERVICE_TABLE: [(ScanService, f64, f64, f64, f64); 14] = [
    (ScanService::Telnet, 0.502, 0.634, 643.0, 553.0),
    (ScanService::Http, 0.094, 0.945, 1418.0, 345.0),
    (ScanService::Ssh, 0.077, 0.337, 64.0, 80.0),
    (ScanService::BackroomNet, 0.062, 0.0, 0.0, 1.0),
    (ScanService::Cwmp, 0.045, 0.448, 169.0, 244.0),
    (ScanService::WsdapiS, 0.041, 0.59, 94.0, 48.0),
    (ScanService::MsSqlServer, 0.033, 0.362, 8.0, 13.0),
    (ScanService::Kerberos, 0.027, 0.99, 1061.0, 23.0),
    (ScanService::MsDs, 0.025, 0.453, 43.0, 330.0),
    (ScanService::EthernetIpIo, 0.007, 0.416, 50.0, 65.0),
    (ScanService::Irdmi, 0.007, 0.985, 1055.0, 18.0),
    (ScanService::Unassigned21677, 0.006, 0.0, 1.0, 87.0),
    (ScanService::Rdp, 0.005, 0.468, 42.0, 61.0),
    (ScanService::Ftp, 0.003, 0.46, 20.0, 33.0),
];
/// Packets outside the 14 named services (Table V footnote: CP = 93.3%).
const OTHER_SCAN_SHARE: f64 = 0.066;

/// Table IV dedicated UDP port-scanner groups: `(port, packets, devices,
/// consumer fraction of the group)`.
const UDP_DEDICATED: [(u16, f64, f64, f64); 7] = [
    (137, 268_000.0, 144.0, 0.6),
    (53413, 267_000.0, 91.0, 0.5),
    (5353, 99_000.0, 165.0, 0.7),
    (4605, 50_000.0, 150.0, 0.5),
    (53, 43_000.0, 158.0, 0.6),
    (3544, 34_000.0, 226.0, 0.6),
    (1194, 34_000.0, 96.0, 0.5),
];

/// The favored ports of broad UDP sprayers (Table IV's 9–10k-device
/// Netcore-backdoor family) with their relative weights.
const SPRAY_FAVORED: [(u16, f64); 3] = [(37547, 2.5), (32124, 1.1), (28183, 0.95)];

impl PaperScenario {
    /// Build the calibrated scenario.
    pub fn build(config: PaperScenarioConfig) -> BuiltScenario {
        let inventory = InventoryBuilder::new(config.synth.clone()).build();
        Self::build_with_inventory(config, inventory)
    }

    /// Build over an already-generated inventory (useful when the caller
    /// also needs the inventory elsewhere).
    pub fn build_with_inventory(
        config: PaperScenarioConfig,
        inventory: SynthOutput,
    ) -> BuiltScenario {
        let telescope = TelescopeConfig::paper();
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xB0A7_5EED);
        let mut truth = GroundTruth::new();
        let mut actors: Vec<Actor> = Vec::new();
        let scale = config.scale;
        let hours = telescope.window.num_hours();

        let mut consumer_pool = inventory.designated_consumer.clone();
        let mut cps_pool = inventory.designated_cps.clone();
        consumer_pool.shuffle(&mut rng);
        cps_pool.shuffle(&mut rng);

        let c_ratio = consumer_pool.len() as f64 / PAPER_CONSUMER_DESIGNATED;
        let x_ratio = cps_pool.len() as f64 / PAPER_CPS_DESIGNATED;

        // ------------------------------------------------------------------
        // 1. DoS victims (exclusive role).
        // ------------------------------------------------------------------
        let nv_c = scaled_count(PAPER_CONSUMER_VICTIMS, c_ratio);
        let nv_x = scaled_count(PAPER_CPS_VICTIMS, x_ratio);
        // Fig 8a: victim geography is *not* proportional to the compromised
        // population — Singapore/Indonesia lead consumer victims, China/US
        // lead CPS victims, while Russia (heavy on scanners) hosts few.
        let consumer_victims = take_biased(
            &mut consumer_pool,
            &inventory.db,
            nv_c,
            &mut rng,
            |d| match d.country.code() {
                "SG" => 10.0,
                "ID" => 7.0,
                "CN" => 2.0,
                "NL" | "GB" => 2.0,
                "US" => 1.5,
                "RU" => 0.25,
                _ => 1.0,
            },
        );
        let cps_victims = take_biased(&mut cps_pool, &inventory.db, nv_x, &mut rng, |d| {
            match d.country.code() {
                "CN" => 2.5,
                "US" => 2.3,
                "CH" => 1.5,
                "KR" | "TW" => 1.2,
                "RU" => 0.3,
                _ => 1.0,
            }
        });
        Self::plant_backscatter(
            &mut actors,
            &mut truth,
            &mut rng,
            &inventory,
            &consumer_victims,
            &cps_victims,
            scale,
        );

        // ------------------------------------------------------------------
        // 2. Onset days for the remaining (actively compromised) devices.
        // ------------------------------------------------------------------
        let mut onsets: std::collections::HashMap<DeviceId, u32> = std::collections::HashMap::new();
        for id in consumer_pool.iter().chain(cps_pool.iter()) {
            onsets.insert(*id, draw_onset(&mut rng, hours));
        }

        // ------------------------------------------------------------------
        // 3. TCP scanners per Table V.
        // ------------------------------------------------------------------
        let ns_c = scaled_count(PAPER_CONSUMER_TCP_SCANNERS, c_ratio).min(consumer_pool.len());
        let ns_x = scaled_count(PAPER_CPS_TCP_SCANNERS, x_ratio).min(cps_pool.len());
        let tcp_consumer: Vec<DeviceId> = consumer_pool[..ns_c].to_vec();
        let tcp_cps: Vec<DeviceId> = cps_pool[..ns_x].to_vec();
        Self::plant_tcp_scanners(
            &mut actors,
            &mut truth,
            &mut rng,
            &inventory,
            &tcp_consumer,
            &tcp_cps,
            &onsets,
            scale,
            c_ratio,
            x_ratio,
        );

        // ------------------------------------------------------------------
        // 4. ICMP scanners.
        // ------------------------------------------------------------------
        let ni_c = scaled_count(PAPER_CONSUMER_ICMP, c_ratio)
            .max(1)
            .min(consumer_pool.len());
        let ni_x = scaled_count(PAPER_CPS_ICMP, x_ratio)
            .max(1)
            .min(cps_pool.len());
        for (ids, total_frac, n_paper) in [
            (
                &consumer_pool[..ni_c],
                ICMP_CONSUMER_FRAC,
                PAPER_CONSUMER_ICMP,
            ),
            (&cps_pool[..ni_x], 1.0 - ICMP_CONSUMER_FRAC, PAPER_CPS_ICMP),
        ] {
            let per_device = ICMP_SCAN_TOTAL * total_frac / n_paper;
            for id in ids {
                let dev = inventory.db.device(*id);
                let onset = onsets[id];
                truth.add_role(*id, Role::IcmpScanner);
                truth.record_onset(*id, onset);
                let retire = draw_retire(&mut rng, onset);
                actors.push(Actor {
                    device: Some(*id),
                    src_ip: dev.ip,
                    behavior: ActorBehavior::IcmpScan,
                    pattern: ActivityPattern::Duty {
                        period: rng.gen_range(10..30),
                        on_hours: rng.gen_range(2..8),
                        phase: rng.gen_range(0..30),
                    },
                    budget: rate_based(
                        per_device * lognormal_factor(&mut rng, 0.8) * scale,
                        onset,
                        retire,
                        hours,
                    ),
                    onset,
                    retire,
                    guarantee_onset_flow: true,
                });
            }
        }

        // ------------------------------------------------------------------
        // 5. UDP actors (spray + dedicated groups).
        // ------------------------------------------------------------------
        Self::plant_udp(
            &mut actors,
            &mut truth,
            &mut rng,
            &inventory,
            &consumer_pool,
            &cps_pool,
            &onsets,
            scale,
            c_ratio,
            x_ratio,
        );

        // ------------------------------------------------------------------
        // 6. The interval-119 port sweep from an IP camera (Fig 9b).
        // ------------------------------------------------------------------
        if let Some(cam) = pick_preferred(
            &tcp_consumer,
            &inventory.db,
            &[
                &|d: &IotDevice| {
                    d.country.code() == "DO"
                        && d.profile.consumer_kind() == Some(ConsumerKind::IpCamera)
                },
                &|d: &IotDevice| d.profile.consumer_kind() == Some(ConsumerKind::IpCamera),
                &|_d: &IotDevice| true,
            ],
        ) {
            let dev = inventory.db.device(cam);
            truth.add_role(cam, Role::TcpScanner);
            truth.record_onset(cam, 119);
            actors.push(Actor {
                device: Some(cam),
                src_ip: dev.ip,
                behavior: ActorBehavior::PortSweep {
                    dst_count: 55,
                    port_count: 10_249,
                },
                pattern: ActivityPattern::Bursts {
                    baseline: 0.0,
                    spikes: vec![(119, 1.0)],
                },
                // The sweep is a single fixed-size event; it is not scaled
                // so the Fig 9b port spike survives scaled-down runs.
                budget: 10_249.0,
                onset: 1,
                retire: u32::MAX,
                guarantee_onset_flow: false,
            });
        }

        // ------------------------------------------------------------------
        // 7. Unindexed (shadow) IoT devices: IoT-like scanners outside the
        //    inventory, for the SVI fingerprinting follow-up.
        // ------------------------------------------------------------------
        for i in 0..config.shadow_iot {
            let src = std::net::Ipv4Addr::new(198, 51, (i / 200) as u8, (i % 200) as u8 + 1);
            truth.shadow_iot.push(src);
            let service = [
                ScanService::Telnet,
                ScanService::Cwmp,
                ScanService::Http,
                ScanService::Irdmi,
            ][rng.gen_range(0..4)];
            actors.push(Actor {
                device: None,
                src_ip: src,
                behavior: ActorBehavior::TcpScan {
                    ports: service.ports().to_vec(),
                    random_port_prob: 0.0,
                },
                pattern: ActivityPattern::Duty {
                    period: rng.gen_range(6..24),
                    on_hours: rng.gen_range(2..8),
                    phase: rng.gen_range(0..24),
                },
                budget: rng.gen_range(3_000.0..20_000.0) * scale,
                onset: draw_onset(&mut rng, hours),
                retire: u32::MAX,
                guarantee_onset_flow: true,
            });
        }

        // ------------------------------------------------------------------
        // 8. Coordinated botnets: small crews of designated devices that
        //    scan the same rare ports on a synchronized schedule (SVII).
        // ------------------------------------------------------------------
        for b in 0..config.coordinated_botnets {
            let size = rng.gen_range(5..=9usize).min(consumer_pool.len());
            if size < 3 {
                break;
            }
            // Members come from the *back* of the pool (UDP-only devices
            // without service-scanner roles) so the crew's scanned-port
            // signature is exactly the planted rare ports.
            let end = consumer_pool.len().saturating_sub(b as usize * 10);
            let start = end.saturating_sub(size);
            let members: Vec<DeviceId> = consumer_pool[start..end].to_vec();
            if members.len() < 3 {
                break;
            }
            // Two rare signature ports well outside the named service
            // groups, plus one synchronized duty schedule for the crew.
            let p1: u16 = rng.gen_range(20_000..60_000);
            let p2: u16 = rng.gen_range(20_000..60_000);
            let pattern = ActivityPattern::Duty {
                period: rng.gen_range(10..20),
                on_hours: rng.gen_range(2..5),
                phase: rng.gen_range(0..20),
            };
            for id in &members {
                let dev = inventory.db.device(*id);
                truth.add_role(*id, Role::TcpScanner);
                truth.record_onset(*id, 1);
                actors.push(Actor {
                    device: Some(*id),
                    src_ip: dev.ip,
                    behavior: ActorBehavior::TcpScan {
                        ports: vec![p1, p2],
                        random_port_prob: 0.0,
                    },
                    pattern: pattern.clone(),
                    budget: rng.gen_range(8_000.0..15_000.0) * scale,
                    onset: 1,
                    retire: u32::MAX,
                    guarantee_onset_flow: true,
                });
            }
            truth.botnets.push(members);
        }

        // ------------------------------------------------------------------
        // 9. Non-IoT noise (must be filtered out by correlation).
        // ------------------------------------------------------------------
        for i in 0..config.noise_sources {
            let src = std::net::Ipv4Addr::new(198, 18 + (i % 2) as u8, rng.gen(), rng.gen());
            let behavior = if rng.gen::<f64>() < 0.5 {
                ActorBehavior::Misconfig
            } else {
                ActorBehavior::TcpScan {
                    // PC-malware style targets (IRC C2, classic backdoor
                    // ports) that IoT scanners never touch, so the
                    // fingerprinting follow-up has a contrast class.
                    ports: vec![6667, 31337, 12345],
                    random_port_prob: 0.02,
                }
            };
            actors.push(Actor {
                device: None,
                src_ip: src,
                behavior,
                pattern: ActivityPattern::Steady,
                budget: rng.gen_range(100.0..5_000.0) * scale,
                onset: 1,
                retire: u32::MAX,
                guarantee_onset_flow: false,
            });
        }

        let scenario = Scenario::new(telescope, config.seed, actors);
        BuiltScenario {
            scenario,
            inventory,
            truth,
        }
    }

    // ----------------------------------------------------------------------
    #[allow(clippy::too_many_arguments)]
    fn plant_tcp_scanners(
        actors: &mut Vec<Actor>,
        truth: &mut GroundTruth,
        rng: &mut StdRng,
        inventory: &SynthOutput,
        consumer: &[DeviceId],
        cps: &[DeviceId],
        onsets: &std::collections::HashMap<DeviceId, u32>,
        scale: f64,
        c_ratio: f64,
        x_ratio: f64,
    ) {
        let mut c_rest: Vec<DeviceId> = consumer.to_vec();
        let mut x_rest: Vec<DeviceId> = cps.to_vec();

        for (service, pkt_share, consumer_frac, c_devs, x_devs) in SERVICE_TABLE {
            let n_c = scaled_count(c_devs, c_ratio).min(c_rest.len());
            let n_x = scaled_count(x_devs, x_ratio).min(x_rest.len());
            // BackroomNet and Unassigned/21677 keep at least their single
            // CPS scanner at any scale.
            let n_x = if x_devs >= 1.0 && n_x == 0 && !x_rest.is_empty() {
                1
            } else {
                n_x
            };
            let c_ids: Vec<DeviceId> = c_rest.drain(..n_c).collect();
            let x_ids: Vec<DeviceId> = x_rest.drain(..n_x).collect();
            let budget = TCP_SCAN_TOTAL * pkt_share;
            Self::plant_service(
                actors,
                truth,
                rng,
                inventory,
                service,
                budget * consumer_frac,
                &c_ids,
                Realm::Consumer,
                onsets,
                scale,
            );
            Self::plant_service(
                actors,
                truth,
                rng,
                inventory,
                service,
                budget * (1.0 - consumer_frac),
                &x_ids,
                Realm::Cps,
                onsets,
                scale,
            );
        }

        // The "other ports" tail: each scanner sweeps its own small random
        // port set on a sparse duty cycle; this is what sets the hourly
        // distinct-port counts of Fig 9 (CPS ≈576/hr vs consumer ≈246/hr).
        let other_budget = TCP_SCAN_TOTAL * OTHER_SCAN_SHARE;
        // CPS tails get the bulk of the unnamed-port budget and sweep wider
        // port sets in shorter, denser sessions — this is what puts CPS
        // hourly distinct ports well above consumer in Fig 9 (576 vs 246
        // per hour).
        let c_other = (other_budget * 0.30 / c_rest.len().max(1) as f64, c_rest);
        let x_other = (other_budget * 0.70 / x_rest.len().max(1) as f64, x_rest);
        for ((per_device, ids), duty_on, port_range) in
            [(c_other, 6..12u32, 1..=3u16), (x_other, 2..6u32, 8..=25u16)]
        {
            for id in ids {
                let dev = inventory.db.device(id);
                let onset = onsets[&id];
                truth.add_role(id, Role::TcpScanner);
                truth.record_onset(id, onset);
                let retire = draw_retire(rng, onset);
                let n_ports = rng.gen_range(port_range.clone());
                let ports: Vec<u16> = (0..n_ports).map(|_| rng.gen()).collect();
                actors.push(Actor {
                    device: Some(id),
                    src_ip: dev.ip,
                    behavior: ActorBehavior::TcpScan {
                        ports,
                        random_port_prob: 0.0,
                    },
                    pattern: ActivityPattern::Duty {
                        period: rng.gen_range(100..160),
                        on_hours: rng.gen_range(duty_on.clone()),
                        phase: rng.gen_range(0..160),
                    },
                    budget: rate_based(
                        per_device * lognormal_factor(rng, 1.0) * scale,
                        onset,
                        retire,
                        143,
                    ),
                    onset,
                    retire,
                    guarantee_onset_flow: true,
                });
            }
        }
    }

    /// Plant the scanners of one Table V service for one realm.
    #[allow(clippy::too_many_arguments)]
    fn plant_service(
        actors: &mut Vec<Actor>,
        truth: &mut GroundTruth,
        rng: &mut StdRng,
        inventory: &SynthOutput,
        service: ScanService,
        budget: f64,
        ids: &[DeviceId],
        realm: Realm,
        onsets: &std::collections::HashMap<DeviceId, u32>,
        scale: f64,
    ) {
        if ids.is_empty() || budget <= 0.0 {
            return;
        }
        // Heavy-hitter structure and special patterns per service. After
        // `concentrate`, indices < heavy_k are the planted heavy hitters.
        let mut shares = lognormal_shares(
            rng,
            ids.len(),
            if realm == Realm::Consumer { 1.8 } else { 1.1 },
        );
        let heavy_k = match service {
            ScanService::Telnet if realm == Realm::Consumer => {
                // §IV-C1: 7 devices contribute 55% of all Telnet packets.
                // Consumer carries 63.4% of Telnet, so its heavy subset
                // gets 55%/0.634 of the consumer share, concentrated on up
                // to 5 consumer heavies (the other 2 are CPS).
                let k = 5.min(ids.len());
                concentrate(&mut shares, k, 0.70);
                k
            }
            ScanService::Telnet => {
                let k = 2.min(ids.len());
                concentrate(&mut shares, k, 0.45);
                k
            }
            ScanService::Ssh if realm == Realm::Consumer => {
                // §IV-C1: two exploited routers (Russia/Australia) join
                // the interval-32/69 burst crew.
                let k = 2.min(ids.len());
                concentrate(&mut shares, k, 0.069);
                k
            }
            ScanService::Ssh => {
                // …together with three CPS devices (two China, one
                // Brazil) that generate ~80-90% of those bursts.
                let k = 3.min(ids.len());
                concentrate(&mut shares, k, 0.052);
                k
            }
            ScanService::BackroomNet => {
                // The single BACnet device is a planted long-running event
                // (continuous from interval 113); it must not churn or be
                // rate-rescaled, or its 6.2% share drifts with the seed.
                ids.len()
            }
            ScanService::Cwmp if realm == Realm::Consumer => {
                // One exploited Australian router generates 10.6%.
                concentrate(&mut shares, 1, 0.24);
                1
            }
            ScanService::Cwmp => {
                // Five CPS devices generate ~25% of all CWMP scans.
                let k = 5.min(ids.len());
                concentrate(&mut shares, k, 0.45);
                k
            }
            ScanService::Http => {
                // Fig 10: HTTP's gradual growth after interval 92. The
                // ramp must be carried by scanners that survive to the
                // end of the window — churning actors retire before the
                // knee pays off and rate-based budgets flatten whatever
                // remains, which is why a ramp spread over the long tail
                // produces no aggregate growth. Plant a persistent
                // cohort (~40% of devices, 45% of the service's packets)
                // that holds the ramp.
                let k = (ids.len() * 2 / 5).max(1).min(ids.len());
                concentrate(&mut shares, k, 0.45);
                k
            }
            _ => 0,
        };

        let random_port_prob = if realm == Realm::Cps { 0.0005 } else { 0.0 };
        for (i, id) in ids.iter().enumerate() {
            let dev = inventory.db.device(*id);
            let mut onset = onsets[id];
            let heavy = i < heavy_k;
            let retire = if heavy {
                u32::MAX
            } else {
                draw_retire(rng, onsets[id])
            };
            if heavy {
                // Heavy hitters are long-running infections present from
                // the first interval; their high-amplitude schedules are
                // what decouple hourly packets from the growing device
                // count (§IV-C: r ≈ 0).
                onset = 1;
            }
            let pattern = match service {
                ScanService::Ssh if heavy => {
                    onset = 1;
                    ActivityPattern::Bursts {
                        baseline: 0.02,
                        spikes: vec![(32, 10.0), (69, 10.5)],
                    }
                }
                ScanService::Telnet if heavy => ActivityPattern::Duty {
                    period: rng.gen_range(5..10),
                    on_hours: rng.gen_range(2..5),
                    phase: rng.gen_range(0..10),
                },
                ScanService::BackroomNet => {
                    // §IV-C1: starts at interval 113, runs ~30 hours.
                    onset = 1;
                    ActivityPattern::Window {
                        start: 113,
                        end: 142,
                    }
                }
                ScanService::Http if heavy => {
                    // The gradual post-92 growth of Fig 10, held by the
                    // persistent cohort so it survives to the window end.
                    ActivityPattern::Ramp {
                        knee: 92,
                        factor: 4.0,
                    }
                }
                ScanService::Http => ActivityPattern::Duty {
                    period: rng.gen_range(4..9),
                    on_hours: rng.gen_range(1..3),
                    phase: rng.gen_range(0..9),
                },
                ScanService::Cwmp => ActivityPattern::Steady,
                _ => {
                    if rng.gen::<f64>() < 0.5 {
                        ActivityPattern::Steady
                    } else {
                        ActivityPattern::Duty {
                            period: rng.gen_range(6..24),
                            on_hours: rng.gen_range(2..8),
                            phase: rng.gen_range(0..24),
                        }
                    }
                }
            };
            truth.add_role(*id, Role::TcpScanner);
            truth.record_onset(*id, onset);
            actors.push(Actor {
                device: Some(*id),
                src_ip: dev.ip,
                behavior: ActorBehavior::TcpScan {
                    ports: service.ports().to_vec(),
                    random_port_prob,
                },
                pattern,
                // Heavy hitters persist through the whole window; the
                // long tail churns with rate-based budgets.
                budget: if heavy {
                    budget * shares[i] * scale
                } else {
                    rate_based(budget * shares[i] * scale, onset, retire, 143)
                },
                onset,
                retire,
                guarantee_onset_flow: true,
            });
        }
    }

    // ----------------------------------------------------------------------
    #[allow(clippy::too_many_arguments)]
    fn plant_udp(
        actors: &mut Vec<Actor>,
        truth: &mut GroundTruth,
        rng: &mut StdRng,
        inventory: &SynthOutput,
        consumer_pool: &[DeviceId],
        cps_pool: &[DeviceId],
        onsets: &std::collections::HashMap<DeviceId, u32>,
        scale: f64,
        c_ratio: f64,
        x_ratio: f64,
    ) {
        let n_cps_udp = ((cps_pool.len() as f64) * CPS_UDP_FRAC) as usize;
        let mut c_udp: Vec<DeviceId> = consumer_pool.to_vec();
        // UDP actors are taken from the *back* of the shuffled pool while
        // TCP scanners come from the front; together they cover every
        // designated CPS device (all 26,881 devices were observed at the
        // telescope) while keeping the §IV-A device counts.
        let start = cps_pool.len().saturating_sub(n_cps_udp);
        let mut x_udp: Vec<DeviceId> = cps_pool[start..].to_vec();

        // Dedicated per-port scanner groups (Table IV rows with assigned
        // or low-device-count ports).
        for (port, packets, devices, consumer_frac) in UDP_DEDICATED {
            let n_c = scaled_count(devices * consumer_frac, c_ratio).min(c_udp.len());
            let n_x = scaled_count(devices * (1.0 - consumer_frac), x_ratio).min(x_udp.len());
            let group: Vec<DeviceId> = c_udp.drain(..n_c).chain(x_udp.drain(..n_x)).collect();
            if group.is_empty() {
                continue;
            }
            let per_device = packets / (devices.max(1.0));
            for id in group {
                let dev = inventory.db.device(id);
                let onset = onsets[&id];
                let retire = draw_retire(rng, onset);
                let b = rate_based(
                    per_device * lognormal_factor(rng, 0.9) * scale,
                    onset,
                    retire,
                    143,
                );
                truth.add_role(id, Role::UdpActor);
                truth.record_onset(id, onset);
                actors.push(Actor {
                    device: Some(id),
                    src_ip: dev.ip,
                    behavior: ActorBehavior::UdpPortScan {
                        port,
                        pkts_per_flow: rng.gen_range(1..=3),
                    },
                    pattern: ActivityPattern::Duty {
                        period: rng.gen_range(8..30),
                        on_hours: rng.gen_range(2..8),
                        phase: rng.gen_range(0..30),
                    },
                    budget: b,
                    onset,
                    retire,
                    guarantee_onset_flow: true,
                });
            }
        }
        // Broad sprayers: the rest of the UDP population.
        let spray_budget_c = UDP_TOTAL * UDP_CONSUMER_FRAC - 480_000.0 * c_ratio.min(1.0);
        let spray_budget_x = UDP_TOTAL * (1.0 - UDP_CONSUMER_FRAC) - 315_000.0 * x_ratio.min(1.0);
        let per_c = spray_budget_c.max(0.0) / (PAPER_CONSUMER_DESIGNATED * 0.95);
        let per_x = spray_budget_x.max(0.0) / (PAPER_CPS_DESIGNATED * 0.85);
        for (ids, per_device, realm) in
            [(c_udp, per_c, Realm::Consumer), (x_udp, per_x, Realm::Cps)]
        {
            for id in ids {
                let dev = inventory.db.device(id);
                let onset = onsets[&id];
                truth.add_role(id, Role::UdpActor);
                truth.record_onset(id, onset);
                let (pattern, pkts_per_flow, favored_prob) = match realm {
                    // §IV-A1: consumer sprayers run long repeated sessions,
                    // ≈1 packet per destination.
                    Realm::Consumer => (
                        ActivityPattern::Duty {
                            period: rng.gen_range(20..40),
                            on_hours: rng.gen_range(6..14),
                            phase: rng.gen_range(0..40),
                        },
                        1,
                        0.05,
                    ),
                    // CPS sprayers: shorter, denser sessions with several
                    // packets per destination (Fig 5a's port spikes).
                    Realm::Cps => (
                        ActivityPattern::Duty {
                            period: rng.gen_range(12..24),
                            on_hours: rng.gen_range(1..4),
                            phase: rng.gen_range(0..24),
                        },
                        rng.gen_range(2..=4),
                        0.03,
                    ),
                };
                // Consumer per-device totals are long-tailed (stealthy
                // majority), CPS tighter and higher — the split behind
                // §IV's "CPS devices generate significantly more packets"
                // Mann-Whitney result.
                let sigma = if realm == Realm::Consumer { 1.4 } else { 0.7 };
                let retire = draw_retire(rng, onset);
                actors.push(Actor {
                    device: Some(id),
                    src_ip: dev.ip,
                    behavior: ActorBehavior::UdpSpray {
                        favored: SPRAY_FAVORED.to_vec(),
                        favored_prob,
                        pkts_per_flow,
                    },
                    pattern,
                    budget: rate_based(
                        per_device * lognormal_factor(rng, sigma) * scale,
                        onset,
                        retire,
                        143,
                    ),
                    onset,
                    retire,
                    guarantee_onset_flow: true,
                });
            }
        }
    }

    // ----------------------------------------------------------------------
    #[allow(clippy::too_many_arguments)]
    fn plant_backscatter(
        actors: &mut Vec<Actor>,
        truth: &mut GroundTruth,
        rng: &mut StdRng,
        inventory: &SynthOutput,
        consumer_victims: &[DeviceId],
        cps_victims: &[DeviceId],
        scale: f64,
    ) {
        // Named spike schedule (§IV-B1): (CPS?, preferred country,
        // preferred service, budget, spikes).
        struct SpikeSpec {
            cps: bool,
            country: &'static str,
            service: Option<CpsService>,
            kind: Option<ConsumerKind>,
            budget: f64,
            spikes: Vec<(u32, f64)>,
        }
        let specs = vec![
            SpikeSpec {
                cps: true,
                country: "CN",
                service: Some(CpsService::EthernetIp),
                kind: None,
                budget: 3.4e6,
                spikes: vec![
                    (6, 1.0),
                    (7, 1.0),
                    (8, 1.0),
                    (53, 1.0),
                    (54, 1.0),
                    (55, 1.0),
                    (56, 0.55),
                ],
            },
            SpikeSpec {
                cps: true,
                country: "CN",
                service: Some(CpsService::EthernetIp),
                kind: None,
                budget: 1.1e6,
                spikes: vec![(99, 1.0), (127, 1.07)],
            },
            SpikeSpec {
                cps: true,
                country: "CH",
                service: Some(CpsService::TelventOasysDna),
                kind: None,
                budget: 0.3e6,
                spikes: vec![(94, 1.0)],
            },
            SpikeSpec {
                cps: true,
                country: "KR",
                service: None,
                kind: None,
                budget: 0.25e6,
                spikes: vec![(20, 1.0), (21, 0.8)],
            },
            SpikeSpec {
                cps: true,
                country: "TW",
                service: None,
                kind: None,
                budget: 0.18e6,
                spikes: vec![(70, 1.0)],
            },
            SpikeSpec {
                cps: false,
                country: "NL",
                service: None,
                kind: Some(ConsumerKind::Printer),
                budget: 0.106e6,
                spikes: vec![(49, 1.0)],
            },
            SpikeSpec {
                cps: false,
                country: "GB",
                service: None,
                kind: Some(ConsumerKind::Printer),
                budget: 0.11e6,
                spikes: vec![(81, 1.0)],
            },
        ];

        let mut c_rest: Vec<DeviceId> = consumer_victims.to_vec();
        let mut x_rest: Vec<DeviceId> = cps_victims.to_vec();
        for spec in specs {
            let pool = if spec.cps { &mut x_rest } else { &mut c_rest };
            let country = spec.country;
            let svc = spec.service;
            let kind = spec.kind;
            let match_service = |d: &IotDevice| {
                svc.is_none_or(|s| d.profile.cps_services().is_some_and(|v| v.contains(&s)))
            };
            let match_kind =
                |d: &IotDevice| kind.is_none_or(|k| d.profile.consumer_kind() == Some(k));
            let preds: [&dyn Fn(&IotDevice) -> bool; 3] = [
                &|d: &IotDevice| d.country.code() == country && match_service(d) && match_kind(d),
                &|d: &IotDevice| match_service(d) && match_kind(d),
                &|_d: &IotDevice| true,
            ];
            let Some(id) = pick_preferred(pool, &inventory.db, &preds) else {
                continue;
            };
            pool.retain(|x| *x != id);
            let dev = inventory.db.device(id);
            let port = victim_service_port(dev, rng);
            truth.add_role(id, Role::DosVictim);
            // Victims trickle baseline backscatter from interval 1 even
            // though their attack episodes come later.
            truth.record_onset(id, 1);
            for (i, _) in &spec.spikes {
                if !truth.dos_spike_intervals.contains(i) {
                    truth.dos_spike_intervals.push(*i);
                }
            }
            actors.push(Actor {
                device: Some(id),
                src_ip: dev.ip,
                behavior: ActorBehavior::Backscatter {
                    service_port: port,
                    // Fig 4 shows a visible ICMP share of total traffic;
                    // most of it is reply-type backscatter.
                    icmp_share: 0.22,
                },
                pattern: ActivityPattern::Bursts {
                    baseline: 0.0015,
                    spikes: spec.spikes,
                },
                budget: spec.budget * scale,
                onset: 1,
                retire: u32::MAX,
                guarantee_onset_flow: true,
            });
        }

        // The long-tail victims: 50% send <170 packets total, 17% ≥ 10k
        // (Fig 6), CPS victims heavier than consumer (§IV-B's
        // Mann-Whitney); the multiplier lands the CPS packet share near
        // the paper's 73%.
        for (ids, realm_mult) in [(c_rest, 1.0), (x_rest, 1.6)] {
            for id in ids {
                let dev = inventory.db.device(id);
                let port = victim_service_port(dev, rng);
                let budget = tail_victim_budget(rng) * realm_mult * scale;
                let n_spikes = rng.gen_range(1..=3usize);
                let hours = 143u32;
                let spikes: Vec<(u32, f64)> = (0..n_spikes)
                    .map(|_| (rng.gen_range(1..=hours), rng.gen_range(0.5..1.5)))
                    .collect();
                truth.add_role(id, Role::DosVictim);
                // Baseline backscatter starts at interval 1 (see above).
                truth.record_onset(id, 1);
                actors.push(Actor {
                    device: Some(id),
                    src_ip: dev.ip,
                    behavior: ActorBehavior::Backscatter {
                        service_port: port,
                        icmp_share: 0.25,
                    },
                    pattern: ActivityPattern::Bursts {
                        baseline: 0.002,
                        spikes,
                    },
                    budget,
                    onset: 1,
                    retire: u32::MAX,
                    guarantee_onset_flow: true,
                });
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Helpers.
// ---------------------------------------------------------------------------

/// Round a paper count scaled by the population ratio.
fn scaled_count(paper_count: f64, ratio: f64) -> usize {
    (paper_count * ratio).round() as usize
}

/// Draw a retirement interval: exponential lifetime with a one-day floor
/// and a mean of ~4.3 days, so the hourly active population stays roughly
/// stationary while the cumulative discovered count keeps growing.
fn draw_retire<R: Rng>(rng: &mut R, onset: u32) -> u32 {
    let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let lifetime = 24.0 - 80.0 * u.ln();
    onset.saturating_add(lifetime.min(400.0) as u32)
}

/// Mean fraction of the window a churning actor is alive (given the
/// onset and lifetime distributions above); used to renormalize
/// rate-based budgets so class totals stay calibrated.
const MEAN_ALIVE_FRACTION: f64 = 0.55;

/// Convert a whole-window budget into a *rate-based* one: an actor alive
/// for a fraction of the window emits proportionally less in total, so its
/// hourly rate does not depend on when it was infected. Without this,
/// late-onset actors compress their budgets into few hours and hourly
/// packets trend upward with the discovery curve (breaking §IV-C's r ≈ 0).
fn rate_based(budget: f64, onset: u32, retire: u32, hours: u32) -> f64 {
    let end = retire.min(hours);
    if end < onset {
        return 0.0;
    }
    let alive = f64::from(end - onset + 1) / f64::from(hours.max(1));
    budget * alive / MEAN_ALIVE_FRACTION
}

/// Take `n` devices from `pool` (removing them) by weighted sampling
/// without replacement, using exponential keys (the A-Res reservoir
/// method): element `i` gets key `u_i^(1/w_i)`; the `n` largest keys win.
fn take_biased<R: Rng>(
    pool: &mut Vec<DeviceId>,
    db: &iotscope_devicedb::DeviceDb,
    n: usize,
    rng: &mut R,
    weight: impl Fn(&IotDevice) -> f64,
) -> Vec<DeviceId> {
    let n = n.min(pool.len());
    let mut keyed: Vec<(f64, usize)> = pool
        .iter()
        .enumerate()
        .map(|(i, id)| {
            let w = weight(db.device(*id)).max(1e-9);
            let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
            (u.powf(1.0 / w), i)
        })
        .collect();
    keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("keys are finite"));
    let mut take_idx: Vec<usize> = keyed[..n].iter().map(|(_, i)| *i).collect();
    take_idx.sort_unstable_by(|a, b| b.cmp(a));
    let mut out: Vec<DeviceId> = take_idx.into_iter().map(|i| pool.swap_remove(i)).collect();
    out.reverse();
    out
}

/// Draw an onset interval reproducing Fig 2 (≈46% on day one, ≈10.8% each
/// following day).
fn draw_onset<R: Rng>(rng: &mut R, hours: u32) -> u32 {
    // Slightly above the 46% the paper reports for day one, because sparse
    // duty cycles delay some devices' first emission past their onset.
    let day = if rng.gen::<f64>() < 0.50 {
        0
    } else {
        rng.gen_range(1..6u32)
    };
    // Onsets cluster toward the start of their day (front-loading hour 1
    // keeps the hourly packet series from ramping within day one, which
    // would otherwise correlate packets with the discovery curve).
    let u: f64 = rng.gen();
    let hour_in_day = (u * u * u * 24.0) as u32;
    (day * 24 + hour_in_day + 1).min(hours)
}

/// Standard-normal draw (Box–Muller; `rand` without `rand_distr`).
fn std_normal<R: Rng>(rng: &mut R) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// A mean-1 lognormal multiplier with the given sigma.
fn lognormal_factor<R: Rng>(rng: &mut R, sigma: f64) -> f64 {
    (std_normal(rng) * sigma - sigma * sigma / 2.0).exp()
}

/// `n` lognormal shares normalized to sum to 1.
fn lognormal_shares<R: Rng>(rng: &mut R, n: usize, sigma: f64) -> Vec<f64> {
    let mut v: Vec<f64> = (0..n).map(|_| lognormal_factor(rng, sigma)).collect();
    let total: f64 = v.iter().sum();
    if total > 0.0 {
        for x in &mut v {
            *x /= total;
        }
    }
    v
}

/// Reshape `shares` so the first `k` entries jointly hold `mass`, keeping
/// the rest proportional. Used to plant heavy-hitter structure.
fn concentrate(shares: &mut [f64], k: usize, mass: f64) {
    if k == 0 || k >= shares.len() {
        return;
    }
    let rest: f64 = shares[k..].iter().sum();
    for s in shares[..k].iter_mut() {
        *s = mass / k as f64;
    }
    if rest > 0.0 {
        let fix = (1.0 - mass) / rest;
        for s in shares[k..].iter_mut() {
            *s *= fix;
        }
    }
}

/// Pick a device from `pool` preferring earlier predicates; does *not*
/// remove it from the pool.
fn pick_preferred(
    pool: &[DeviceId],
    db: &iotscope_devicedb::DeviceDb,
    preds: &[&dyn Fn(&IotDevice) -> bool],
) -> Option<DeviceId> {
    for pred in preds {
        if let Some(id) = pool.iter().find(|id| pred(db.device(**id))) {
            return Some(*id);
        }
    }
    None
}

/// The service port a victim would reply from.
fn victim_service_port<R: Rng>(dev: &IotDevice, rng: &mut R) -> u16 {
    match &dev.profile {
        DeviceProfile::Cps(services) => services.first().map(|s| s.port()).unwrap_or(502),
        DeviceProfile::Consumer(kind) => match kind {
            ConsumerKind::Router => *[80u16, 23, 7547].get(rng.gen_range(0..3)).unwrap_or(&80),
            ConsumerKind::IpCamera => *[80u16, 554].get(rng.gen_range(0..2)).unwrap_or(&80),
            ConsumerKind::Printer => *[9100u16, 80, 515].get(rng.gen_range(0..3)).unwrap_or(&9100),
            ConsumerKind::NetworkStorage => *[445u16, 80].get(rng.gen_range(0..2)).unwrap_or(&445),
            ConsumerKind::TvBoxDvr => 80,
            ConsumerKind::ElectricHub => 80,
        },
    }
}

/// Draw a tail victim's total backscatter budget (Fig 6 bands).
fn tail_victim_budget<R: Rng>(rng: &mut R) -> f64 {
    let u: f64 = rng.gen();
    if u < 0.50 {
        rng.gen_range(20.0..170.0)
    } else if u < 0.83 {
        loguniform(rng, 170.0, 10_000.0)
    } else {
        loguniform(rng, 10_000.0, 60_000.0)
    }
}

fn loguniform<R: Rng>(rng: &mut R, lo: f64, hi: f64) -> f64 {
    (rng.gen_range(lo.ln()..hi.ln())).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::HourTraffic;
    use iotscope_net::protocol::TransportProtocol;
    use std::collections::HashSet;

    fn built() -> BuiltScenario {
        PaperScenario::build(PaperScenarioConfig::tiny(11))
    }

    #[test]
    fn parse_scale_takes_only_finite_positive_values() {
        assert_eq!(PaperScenarioConfig::parse_scale("0.05"), Ok(0.05));
        assert_eq!(PaperScenarioConfig::parse_scale("1e-4"), Ok(1e-4));
        for bad in ["0", "-1", "NaN", "inf", "-inf", "x", ""] {
            let err = PaperScenarioConfig::parse_scale(bad).unwrap_err();
            assert!(err.contains("--scale"), "{bad}: {err}");
        }
    }

    #[test]
    fn build_is_deterministic() {
        let a = PaperScenario::build(PaperScenarioConfig::tiny(5));
        let b = PaperScenario::build(PaperScenarioConfig::tiny(5));
        assert_eq!(a.scenario.actors().len(), b.scenario.actors().len());
        assert_eq!(a.scenario.generate_hour(10), b.scenario.generate_hour(10));
    }

    #[test]
    fn roles_cover_all_classes() {
        let b = built();
        assert!(!b.truth.devices_with_role(Role::TcpScanner).is_empty());
        assert!(!b.truth.devices_with_role(Role::IcmpScanner).is_empty());
        assert!(!b.truth.devices_with_role(Role::UdpActor).is_empty());
        assert!(!b.truth.devices_with_role(Role::DosVictim).is_empty());
    }

    #[test]
    fn victim_counts_scale_with_population() {
        let b = built();
        let victims = b.truth.devices_with_role(Role::DosVictim);
        // tiny: 600 consumer (394/15299 → ~15) + 450 CPS (445/11582 → ~17).
        assert!(
            (20..=50).contains(&victims.len()),
            "{} victims",
            victims.len()
        );
    }

    #[test]
    fn udp_actors_dominate_population() {
        let b = built();
        let udp = b.truth.devices_with_role(Role::UdpActor).len();
        let designated = b.truth.num_designated();
        assert!(
            udp as f64 > 0.8 * designated as f64,
            "udp {udp} designated {designated}"
        );
    }

    #[test]
    fn traffic_contains_all_protocols() {
        let b = built();
        let mut protos = HashSet::new();
        for i in [1u32, 20, 50, 100, 140] {
            for f in b.scenario.generate_hour(i).flows {
                protos.insert(f.protocol);
            }
        }
        assert!(protos.contains(&TransportProtocol::Tcp));
        assert!(protos.contains(&TransportProtocol::Udp));
        assert!(protos.contains(&TransportProtocol::Icmp));
    }

    #[test]
    fn telnet_is_the_top_scanned_service() {
        let b = built();
        let mut telnet = 0u64;
        let mut http = 0u64;
        let mut ssh = 0u64;
        for ht in b.scenario.generate() {
            for f in &ht.flows {
                if f.protocol == TransportProtocol::Tcp && f.tcp_flags.is_bare_syn() {
                    match ScanService::from_port(f.dst_port) {
                        Some(ScanService::Telnet) => telnet += u64::from(f.packets),
                        Some(ScanService::Http) => http += u64::from(f.packets),
                        Some(ScanService::Ssh) => ssh += u64::from(f.packets),
                        _ => {}
                    }
                }
            }
        }
        assert!(telnet > 3 * http, "telnet {telnet} http {http}");
        assert!(http > ssh / 3, "http {http} ssh {ssh}");
    }

    #[test]
    fn dos_spikes_land_on_schedule() {
        let b = built();
        let hours: Vec<HourTraffic> = b.scenario.generate();
        let backscatter_pkts = |ht: &HourTraffic| -> u64 {
            ht.flows
                .iter()
                .filter(|f| match f.protocol {
                    TransportProtocol::Tcp => f.tcp_flags.is_backscatter(),
                    TransportProtocol::Icmp => f.icmp_type().is_some_and(|t| t.is_backscatter()),
                    TransportProtocol::Udp => false,
                })
                .map(|f| u64::from(f.packets))
                .sum()
        };
        let series: Vec<u64> = hours.iter().map(backscatter_pkts).collect();
        let spike_mean: f64 = [6usize, 7, 8, 53, 54, 55]
            .iter()
            .map(|i| series[*i - 1] as f64)
            .sum::<f64>()
            / 6.0;
        let quiet_mean: f64 = [15usize, 30, 40, 60, 110, 130]
            .iter()
            .map(|i| series[*i - 1] as f64)
            .sum::<f64>()
            / 6.0;
        assert!(
            spike_mean > 5.0 * (quiet_mean + 1.0),
            "spikes {spike_mean} quiet {quiet_mean}"
        );
    }

    #[test]
    fn backroomnet_scanner_appears_late() {
        let b = built();
        let early: u64 = b
            .scenario
            .generate_hour(50)
            .flows
            .iter()
            .filter(|f| f.dst_port == 3387 && f.tcp_flags.is_bare_syn())
            .map(|f| u64::from(f.packets))
            .sum();
        let late: u64 = b
            .scenario
            .generate_hour(120)
            .flows
            .iter()
            .filter(|f| f.dst_port == 3387 && f.tcp_flags.is_bare_syn())
            .map(|f| u64::from(f.packets))
            .sum();
        assert_eq!(early, 0);
        assert!(late > 100, "late {late}");
    }

    #[test]
    fn port_sweep_spikes_distinct_ports_at_119() {
        let b = built();
        let ports_at = |i: u32| -> usize {
            b.scenario
                .generate_hour(i)
                .flows
                .iter()
                .filter(|f| f.protocol == TransportProtocol::Tcp)
                .map(|f| f.dst_port)
                .collect::<HashSet<u16>>()
                .len()
        };
        let p119 = ports_at(119);
        let p60 = ports_at(60);
        assert!(p119 > 5_000, "interval 119 ports {p119}");
        assert!(p119 > 5 * p60.max(1), "119={p119} 60={p60}");
    }

    #[test]
    fn onset_distribution_front_loads_day_one() {
        let b = built();
        let day1 = b.truth.onset.values().filter(|i| **i <= 24).count();
        let total = b.truth.onset.len();
        let frac = day1 as f64 / total as f64;
        assert!((0.35..=0.60).contains(&frac), "day-1 onset fraction {frac}");
    }

    #[test]
    fn noise_sources_have_no_device() {
        let b = built();
        // device:None actors = noise sources + planted shadow IoT devices.
        let anonymous = b
            .scenario
            .actors()
            .iter()
            .filter(|a| a.device.is_none())
            .count();
        assert_eq!(anonymous, 40 + 12);
        for a in b.scenario.actors() {
            if a.device.is_none() {
                assert_eq!(a.src_ip.octets()[0], 198);
                assert!(b.inventory.db.correlate(a.src_ip).is_none());
            }
        }
    }

    #[test]
    fn shadow_iot_and_botnets_recorded_in_truth() {
        let b = built();
        assert_eq!(b.truth.shadow_iot.len(), 12);
        for ip in &b.truth.shadow_iot {
            assert!(b.inventory.db.correlate(*ip).is_none(), "{ip} is indexed");
            assert_eq!(ip.octets()[1], 51); // 198.51/16, distinct from noise
        }
        assert_eq!(b.truth.botnets.len(), 2);
        for members in &b.truth.botnets {
            assert!(members.len() >= 5);
            for id in members {
                assert!(b.truth.has_role(*id, Role::TcpScanner));
            }
        }
    }

    #[test]
    fn expected_packets_scale_with_config() {
        let small = PaperScenario::build(PaperScenarioConfig::tiny(3));
        let mut bigger_cfg = PaperScenarioConfig::tiny(3);
        bigger_cfg.scale *= 2.0;
        let bigger = PaperScenario::build(bigger_cfg);
        let ratio =
            bigger.scenario.expected_total_packets() / small.scenario.expected_total_packets();
        assert!((1.6..=2.2).contains(&ratio), "ratio {ratio}");
    }
}
