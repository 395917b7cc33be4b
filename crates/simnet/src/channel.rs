//! Markov-modulated radio channel.
//!
//! Mobile radio conditions are well modelled as a continuous-time Markov
//! chain over a small set of quality states, each with characteristic
//! capacity / latency / loss. The paper leans on exactly this contrast:
//!
//! * The cleartext training set (§3) comes from everyday traffic, mostly
//!   from users at rest — our `StaticHome` / `StaticOffice` scenarios.
//! * The encrypted evaluation set (§5.2) was produced by a user who "was
//!   motivated to launch the application when moving to increase the
//!   probability of QoE issues" — our `Commuting` scenario, and §5.4
//!   attributes the evaluation-set differences (shorter chunk
//!   inter-arrivals, more borderline-severe stalls) to those degraded,
//!   volatile conditions.
//!
//! A channel is advanced lazily: callers move the clock with
//! [`RadioChannel::advance_to`] and read the instantaneous capacity, base
//! RTT and loss rate. Within one dwell period the capacity is a fixed
//! lognormal draw around the state mean, so consecutive chunks see
//! correlated — not i.i.d. — conditions, which is what lets the paper's
//! session-level summary features carry signal. An advance longer than
//! [`MIXING_HORIZON`] does not walk the dwells nobody observes: it draws
//! the channel's state from the chain's time-stationary law.

use crate::rng::{standard_normal, SeedSequence};
use crate::time::{Duration, Instant};
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Shortest dwell: exponential dwell draws are clamped up to it, which
/// also guarantees the walk makes forward progress.
const MIN_DWELL: Duration = Duration(500_000);

/// Longest dwell: exponential dwell draws are clamped down to it.
const MAX_DWELL: Duration = Duration(600_000_000);

/// An advance longer than this draws the channel's state instead of
/// walking to it (see [`RadioChannel::advance_to`]). No dwell lasts more
/// than 10 minutes, so at least 144 dwells fit in it, and after 144
/// steps every scenario's transition matrix has forgotten its starting
/// state to within 1e-14 in total variation: the walk's state at the
/// target follows the stationary law to float precision.
pub const MIXING_HORIZON: Duration = Duration(24 * 3600 * 1_000_000);

/// Discrete radio quality states, ordered best to worst.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RadioState {
    /// Strong signal, near the cell: tens of Mbps.
    Excellent,
    /// Typical good coverage.
    Good,
    /// Usable but constrained (cell edge, light congestion).
    Fair,
    /// Heavily degraded (deep indoor, handover zones).
    Poor,
    /// Near-outage: the connection survives but crawls.
    Outage,
}

/// All states, best to worst. Index order matches the transition matrices.
pub const ALL_STATES: [RadioState; 5] = [
    RadioState::Excellent,
    RadioState::Good,
    RadioState::Fair,
    RadioState::Poor,
    RadioState::Outage,
];

impl RadioState {
    fn index(self) -> usize {
        match self {
            RadioState::Excellent => 0,
            RadioState::Good => 1,
            RadioState::Fair => 2,
            RadioState::Poor => 3,
            RadioState::Outage => 4,
        }
    }
}

/// Static parameters of one radio state under one scenario.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChannelParams {
    /// Mean downlink capacity in bits per second.
    pub mean_capacity_bps: f64,
    /// σ of the lognormal per-dwell capacity draw.
    pub capacity_sigma: f64,
    /// Propagation + scheduling base RTT.
    pub base_rtt: Duration,
    /// Mean of the per-round exponential RTT jitter (milliseconds).
    pub rtt_jitter_ms: f64,
    /// Per-packet loss probability.
    pub loss_rate: f64,
    /// Mean dwell time in this state.
    pub mean_dwell: Duration,
}

/// Per-state baseline parameters (2016-era 3G/early-LTE mobile numbers).
fn base_params(state: RadioState) -> ChannelParams {
    match state {
        RadioState::Excellent => ChannelParams {
            mean_capacity_bps: 25e6,
            capacity_sigma: 0.20,
            base_rtt: Duration::from_millis(45),
            rtt_jitter_ms: 4.0,
            loss_rate: 0.0002,
            mean_dwell: Duration::from_secs(60),
        },
        RadioState::Good => ChannelParams {
            mean_capacity_bps: 12e6,
            capacity_sigma: 0.25,
            base_rtt: Duration::from_millis(55),
            rtt_jitter_ms: 6.0,
            loss_rate: 0.0004,
            mean_dwell: Duration::from_secs(45),
        },
        RadioState::Fair => ChannelParams {
            mean_capacity_bps: 4.5e6,
            capacity_sigma: 0.30,
            base_rtt: Duration::from_millis(75),
            rtt_jitter_ms: 10.0,
            loss_rate: 0.001,
            mean_dwell: Duration::from_secs(20),
        },
        RadioState::Poor => ChannelParams {
            mean_capacity_bps: 0.45e6,
            capacity_sigma: 0.40,
            base_rtt: Duration::from_millis(120),
            rtt_jitter_ms: 20.0,
            loss_rate: 0.003,
            mean_dwell: Duration::from_secs(10),
        },
        RadioState::Outage => ChannelParams {
            mean_capacity_bps: 0.08e6,
            capacity_sigma: 0.40,
            base_rtt: Duration::from_millis(350),
            rtt_jitter_ms: 60.0,
            loss_rate: 0.008,
            mean_dwell: Duration::from_secs(4),
        },
    }
}

/// Mobility / congestion scenario presets.
///
/// Each scenario fixes the Markov chain (initial distribution, transition
/// matrix, dwell-time scaling) plus optional overrides of the per-state
/// parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Scenario {
    /// User at home on good fixed coverage. Dominates the cleartext set.
    StaticHome,
    /// User at an office; slightly busier cell.
    StaticOffice,
    /// User on the move: volatile states, frequent degradation. Dominates
    /// the encrypted evaluation set (§5.2).
    Commuting,
    /// A stationary but overloaded cell: sticky Fair/Poor with inflated
    /// queueing RTT.
    CongestedCell,
}

impl Scenario {
    /// Parameters of `state` under this scenario.
    pub fn params(self, state: RadioState) -> ChannelParams {
        let mut p = base_params(state);
        match self {
            Scenario::StaticHome => {}
            Scenario::StaticOffice => {
                p.mean_capacity_bps *= 0.9;
            }
            Scenario::Commuting => {
                // Mobility shortens good-state dwells drastically (cells
                // fly past), but degraded stretches are *long* — tunnels,
                // cuttings, station canyons. This asymmetry is what makes
                // commuting sessions stall despite adaptive streaming:
                // the §5.4 contrast between the static (healthy) and
                // moving (problematic) encrypted sessions.
                p.mean_dwell = match state {
                    RadioState::Poor => Duration::from_secs(25),
                    // Longer than any playout buffer: an outage on the
                    // move almost always costs a stall, so the healthy
                    // and problematic populations separate the way the
                    // paper's encrypted dataset did (§5.4).
                    RadioState::Outage => Duration::from_secs(22),
                    _ => p.mean_dwell.mul_f64(0.25),
                };
                p.rtt_jitter_ms *= 1.5;
                p.capacity_sigma += 0.05;
            }
            Scenario::CongestedCell => {
                // Queueing at the eNodeB: less capacity, fatter RTT.
                p.mean_capacity_bps *= 0.6;
                p.base_rtt = p.base_rtt.mul_f64(1.8);
                p.rtt_jitter_ms *= 2.0;
                p.loss_rate *= 1.5;
            }
        }
        p
    }

    /// Initial state distribution (probability per state, summing to 1)
    /// of a channel at t = 0. It governs only channels whose first
    /// advance is at most [`MIXING_HORIZON`]; a channel first advanced
    /// further starts from the chain's time-stationary law instead.
    pub fn initial_distribution(self) -> [f64; 5] {
        match self {
            Scenario::StaticHome => [0.40, 0.40, 0.15, 0.05, 0.00],
            Scenario::StaticOffice => [0.30, 0.45, 0.20, 0.05, 0.00],
            Scenario::Commuting => [0.03, 0.10, 0.25, 0.40, 0.22],
            Scenario::CongestedCell => [0.03, 0.17, 0.50, 0.25, 0.05],
        }
    }

    /// Row of the transition matrix for `from` (probability of the *next*
    /// state after a dwell expires; rows sum to 1).
    pub fn transition_row(self, from: RadioState) -> [f64; 5] {
        let m: [[f64; 5]; 5] = match self {
            Scenario::StaticHome => [
                [0.70, 0.25, 0.05, 0.00, 0.00],
                [0.25, 0.60, 0.13, 0.02, 0.00],
                [0.05, 0.45, 0.40, 0.09, 0.01],
                [0.00, 0.15, 0.55, 0.25, 0.05],
                [0.00, 0.05, 0.35, 0.45, 0.15],
            ],
            Scenario::StaticOffice => [
                [0.55, 0.35, 0.10, 0.00, 0.00],
                [0.20, 0.55, 0.20, 0.05, 0.00],
                [0.05, 0.40, 0.40, 0.13, 0.02],
                [0.00, 0.10, 0.55, 0.28, 0.07],
                [0.00, 0.05, 0.30, 0.45, 0.20],
            ],
            Scenario::Commuting => [
                [0.25, 0.35, 0.25, 0.10, 0.05],
                [0.10, 0.30, 0.33, 0.20, 0.07],
                [0.04, 0.20, 0.36, 0.28, 0.12],
                [0.02, 0.08, 0.30, 0.40, 0.20],
                [0.00, 0.04, 0.20, 0.46, 0.30],
            ],
            Scenario::CongestedCell => [
                [0.10, 0.40, 0.40, 0.10, 0.00],
                [0.05, 0.30, 0.45, 0.18, 0.02],
                [0.01, 0.15, 0.50, 0.28, 0.06],
                [0.00, 0.05, 0.35, 0.45, 0.15],
                [0.00, 0.02, 0.25, 0.48, 0.25],
            ],
        };
        m[from.index()]
    }
}

/// One scenario's Markov chain, looked up once per channel so the
/// per-dwell walk neither rebuilds the transition matrix nor the
/// per-state parameters.
#[derive(Debug, Clone)]
struct Chain {
    /// `Scenario::params`, by state index.
    params: [ChannelParams; 5],
    /// `Scenario::transition_row`, by state index.
    rows: [[f64; 5]; 5],
    /// Each row's `iter().sum()`: the exact float `sample_categorical`
    /// scales its draw by.
    row_sums: [f64; 5],
    /// Mean clamped dwell per state in seconds:
    /// m = a + μ(e^(−a/μ) − e^(−b/μ)) for mean dwell μ and clamp
    /// [a, b] = [`MIN_DWELL`, `MAX_DWELL`].
    clamped_mean_secs: [f64; 5],
    /// The time-stationary law, unnormalised: ν_i·m_i, where ν is the
    /// stationary vector of `rows` (the share of dwells spent in each
    /// state) and m_i is `clamped_mean_secs` (how long each lasts).
    stationary: [f64; 5],
    /// `stationary.iter().sum()`.
    stationary_sum: f64,
}

impl Chain {
    fn new(scenario: Scenario) -> Self {
        let rows = ALL_STATES.map(|s| scenario.transition_row(s));
        let params = ALL_STATES.map(|s| scenario.params(s));
        let (a, b) = (MIN_DWELL.as_secs_f64(), MAX_DWELL.as_secs_f64());
        let clamped_mean_secs = params.map(|p| {
            let mu = p.mean_dwell.as_secs_f64();
            a + mu * ((-a / mu).exp() - (-b / mu).exp())
        });
        // ν is any row of P^256 (eight squarings): 256 steps are past
        // the 144 that bring every row within 1e-14 of ν.
        let mut power = rows;
        for _ in 0..8 {
            power = std::array::from_fn(|i| {
                std::array::from_fn(|j| (0..5).map(|k| power[i][k] * power[k][j]).sum())
            });
        }
        let stationary: [f64; 5] = std::array::from_fn(|i| power[0][i] * clamped_mean_secs[i]);
        Chain {
            params,
            row_sums: rows.map(|row| row.iter().sum()),
            rows,
            clamped_mean_secs,
            stationary_sum: stationary.iter().sum(),
            stationary,
        }
    }

    /// The rest of a dwell in `state` seen at a time-stationary instant,
    /// by inverting its residual-life law at `u` in [0, 1). With
    /// probability a/m it is uniform on [0, a); otherwise it is a plus
    /// an exponential of mean μ truncated below b − a (notation of
    /// `clamped_mean_secs`).
    fn residual_dwell(&self, state: usize, u: f64) -> Duration {
        let (a, b) = (MIN_DWELL.as_secs_f64(), MAX_DWELL.as_secs_f64());
        let m = self.clamped_mean_secs[state];
        let mu = self.params[state].mean_dwell.as_secs_f64();
        let v = u * m;
        let secs = if v < a {
            v
        } else {
            let x = (v - a) / (m - a);
            a - mu * (1.0 - x * (1.0 - (-(b - a) / mu).exp())).ln()
        };
        Duration::from_secs_f64(secs)
    }
}

/// The evolving radio channel one device experiences.
///
/// Every dwell consumes the channel's RNG in one fixed order:
///
/// 1. the categorical next-state draw (skipped for the first dwell,
///    whose state comes from the scenario's initial distribution);
/// 2. the exponential dwell-length draw;
/// 3. the two Box–Muller draws behind the lognormal capacity;
/// 4. the `gen_bool(0.3)` extra-loss draw, plus one follow-up draw when
///    it fires.
///
/// [`RadioChannel::advance_to`] keeps this order for every dwell it
/// walks, but only computes capacity and extra loss for the dwell that
/// covers its target: dwells that expire before it consume steps 3 and
/// 4 without the maths, since no one can observe their conditions.
///
/// An advance longer than [`MIXING_HORIZON`] walks no dwell. It draws
/// the state from the time-stationary law (one categorical draw), the
/// rest of its dwell from the residual-life law (one uniform draw), and
/// then the dwell's conditions as steps 3–4.
#[derive(Debug, Clone)]
pub struct RadioChannel {
    scenario: Scenario,
    chain: Chain,
    rng: StdRng,
    now: Instant,
    state: RadioState,
    dwell_until: Instant,
    /// Per-dwell lognormal capacity draw (bps).
    dwell_capacity_bps: f64,
    /// Per-dwell cross-traffic loss component, added to the state's
    /// baseline. Real cells see sporadic loss bursts from interference
    /// and cross traffic even in good radio states; without this noise
    /// the retransmission counters would be a perfect stall oracle,
    /// which no real network offers.
    dwell_extra_loss: f64,
}

impl RadioChannel {
    /// Create a channel for `scenario`, seeded from `seeds` stream
    /// `stream_index` (typically the session index).
    pub fn new(scenario: Scenario, seeds: &SeedSequence, stream_index: u64) -> Self {
        let mut rng = seeds.child(0xC4A7).stream(stream_index);
        let init = scenario.initial_distribution();
        let state = sample_categorical(&mut rng, &init, init.iter().sum());
        let mut ch = RadioChannel {
            scenario,
            chain: Chain::new(scenario),
            rng,
            now: Instant::ZERO,
            state,
            dwell_until: Instant::ZERO,
            dwell_capacity_bps: 0.0,
            dwell_extra_loss: 0.0,
        };
        ch.enter_dwell(state, Instant::ZERO);
        ch.draw_conditions();
        ch
    }

    /// Parameters of the current state.
    fn params(&self) -> &ChannelParams {
        &self.chain.params[self.state.index()]
    }

    /// Enter `state` at `start` and draw how long it lasts (step 2).
    fn enter_dwell(&mut self, state: RadioState, start: Instant) {
        self.state = state;
        // Exponential dwell with the scenario's mean.
        let u: f64 = self.rng.gen_range(1e-9..1.0);
        let dwell = self.params().mean_dwell.mul_f64(-u.ln());
        // Clamp dwells into [0.5 s, 10 min] to keep traces well-behaved.
        let dwell = dwell.clamp(MIN_DWELL, MAX_DWELL);
        self.dwell_until = start + dwell;
    }

    /// Draw the current dwell's capacity and extra loss (steps 3–4).
    fn draw_conditions(&mut self) {
        let p = *self.params();
        // Lognormal capacity draw centred on the state mean.
        let z = standard_normal(&mut self.rng);
        self.dwell_capacity_bps = p.mean_capacity_bps * (z * p.capacity_sigma).exp();
        // Sporadic cross-traffic loss, state-independent: the cellular
        // link layer (RLC/HARQ) hides radio loss from TCP, so the
        // residual random loss a mid-path proxy sees is decoupled from
        // the radio state. Most TCP loss instead comes from self-induced
        // bottleneck-queue overflow, modelled in `tcp.rs`. Together these
        // keep retransmission counts weakly informative about stalls —
        // the paper measures only 0.12 bits of gain for retx max
        // (Table 2) despite stalls being bandwidth starvation events.
        self.dwell_extra_loss = if self.rng.gen_bool(0.3) {
            let u: f64 = self.rng.gen_range(1e-9..1.0);
            (-u.ln() * 0.002).min(0.01)
        } else {
            0.0
        };
    }

    /// Consume exactly the draws of [`Self::draw_conditions`] without
    /// computing anything from them, for a dwell that expires unseen.
    fn skip_conditions(&mut self) {
        let _: f64 = self.rng.gen_range(1e-12..1.0);
        let _: f64 = self.rng.gen_range(0.0..1.0);
        if self.rng.gen_bool(0.3) {
            let _: f64 = self.rng.gen_range(1e-9..1.0);
        }
    }

    /// Advance simulated time to `t`, stepping the Markov chain through
    /// however many dwell expirations fall in the interval. Time never
    /// moves backwards; stale calls are no-ops.
    ///
    /// An advance longer than [`MIXING_HORIZON`] does not walk: the
    /// state at `t`, the rest of its dwell and its conditions are drawn
    /// from the chain's time-stationary law, which the walk would have
    /// reached to float precision.
    pub fn advance_to(&mut self, t: Instant) {
        if t <= self.now {
            return;
        }
        let elapsed = t.duration_since(self.now);
        self.now = t;
        if elapsed > MIXING_HORIZON {
            self.enter_stationary(t);
            return;
        }
        while t >= self.dwell_until {
            let from = self.state.index();
            let next = sample_categorical(
                &mut self.rng,
                &self.chain.rows[from],
                self.chain.row_sums[from],
            );
            // Anchor the new dwell at the expiry point so dwell
            // boundaries are exact.
            self.enter_dwell(next, self.dwell_until);
            if self.dwell_until > t {
                self.draw_conditions();
            } else {
                self.skip_conditions();
            }
        }
    }

    /// Draw the state at `t` from the time-stationary law and the rest
    /// of its dwell from the residual-life law (at least 1 µs, so the
    /// dwell covers `t`), then the dwell's conditions.
    fn enter_stationary(&mut self, t: Instant) {
        self.state = sample_categorical(
            &mut self.rng,
            &self.chain.stationary,
            self.chain.stationary_sum,
        );
        let u: f64 = self.rng.gen_range(0.0..1.0);
        let residual = self.chain.residual_dwell(self.state.index(), u);
        self.dwell_until = t + residual.max(Duration(1));
        self.draw_conditions();
    }

    /// Current simulated time.
    pub fn now(&self) -> Instant {
        self.now
    }

    /// Current radio state.
    pub fn state(&self) -> RadioState {
        self.state
    }

    /// Scenario this channel was built for.
    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// Instantaneous downlink capacity (bps) — the per-dwell draw.
    pub fn capacity_bps(&self) -> f64 {
        self.dwell_capacity_bps
    }

    /// Per-packet loss probability in the current state (radio baseline
    /// plus the per-dwell cross-traffic component).
    pub fn loss_rate(&self) -> f64 {
        self.params().loss_rate + self.dwell_extra_loss
    }

    /// Base (unloaded) RTT in the current state.
    pub fn base_rtt(&self) -> Duration {
        self.params().base_rtt
    }

    /// Draw one RTT jitter sample (exponential, state-dependent mean).
    pub fn sample_rtt_jitter(&mut self) -> Duration {
        let mean_ms = self.params().rtt_jitter_ms;
        let u: f64 = self.rng.gen_range(1e-9..1.0);
        Duration::from_secs_f64(-u.ln() * mean_ms / 1e3)
    }

    /// Bandwidth-delay product (bytes) of the current conditions — the
    /// quantity the paper's proxy reports as "BDP" (§3.1: "the link's
    /// capacity [multiplied by] its round-trip delay ... the maximum
    /// amount of bytes that can be transferred by the link at any given
    /// time").
    pub fn bdp_bytes(&self) -> f64 {
        self.dwell_capacity_bps * self.base_rtt().as_secs_f64() / 8.0
    }
}

/// Draw a state with probabilities `probs`, whose `iter().sum()` is
/// `total`: the first state `i` whose running remainder `x_i` (the draw
/// minus the probabilities before `i`, subtracted in order) falls below
/// `probs[i]`, else the last state. All remainders are computed up
/// front so the choice is a bit scan rather than a chain of
/// unpredictable branches; the floats are the same either way.
fn sample_categorical(rng: &mut StdRng, probs: &[f64; 5], total: f64) -> RadioState {
    let x0: f64 = rng.gen_range(0.0..total.max(1e-12));
    let x1 = x0 - probs[0];
    let x2 = x1 - probs[1];
    let x3 = x2 - probs[2];
    let hits = u32::from(x0 < probs[0])
        | u32::from(x1 < probs[1]) << 1
        | u32::from(x2 < probs[2]) << 2
        | u32::from(x3 < probs[3]) << 3
        | 1 << 4;
    ALL_STATES[hits.trailing_zeros() as usize]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn channel(scenario: Scenario, idx: u64) -> RadioChannel {
        RadioChannel::new(scenario, &SeedSequence::new(1234), idx)
    }

    const SCENARIOS: [Scenario; 4] = [
        Scenario::StaticHome,
        Scenario::StaticOffice,
        Scenario::Commuting,
        Scenario::CongestedCell,
    ];

    /// The categorical draw as a chain of branches, summing its row.
    fn reference_categorical(rng: &mut StdRng, probs: &[f64; 5]) -> RadioState {
        let total: f64 = probs.iter().sum();
        let mut x: f64 = rng.gen_range(0.0..total.max(1e-12));
        for (i, &p) in probs.iter().enumerate() {
            if x < p {
                return ALL_STATES[i];
            }
            x -= p;
        }
        ALL_STATES[4]
    }

    /// The channel as it stepped before the walk skipped unseen dwells:
    /// every dwell rebuilds its parameters and transition row and
    /// computes its conditions in full. The oracle for the fast path.
    struct ReferenceChannel {
        scenario: Scenario,
        rng: StdRng,
        now: Instant,
        state: RadioState,
        dwell_until: Instant,
        dwell_capacity_bps: f64,
        dwell_extra_loss: f64,
    }

    impl ReferenceChannel {
        fn new(scenario: Scenario, seeds: &SeedSequence, stream_index: u64) -> Self {
            let mut rng = seeds.child(0xC4A7).stream(stream_index);
            let init = scenario.initial_distribution();
            let state = reference_categorical(&mut rng, &init);
            let mut ch = ReferenceChannel {
                scenario,
                rng,
                now: Instant::ZERO,
                state,
                dwell_until: Instant::ZERO,
                dwell_capacity_bps: 0.0,
                dwell_extra_loss: 0.0,
            };
            ch.enter_state(state);
            ch
        }

        fn enter_state(&mut self, state: RadioState) {
            self.state = state;
            let p = self.scenario.params(state);
            let u: f64 = self.rng.gen_range(1e-9..1.0);
            let dwell = p.mean_dwell.mul_f64(-u.ln());
            let dwell_us = dwell.as_micros().clamp(500_000, 600_000_000);
            self.dwell_until = self.now + Duration(dwell_us);
            let z = standard_normal(&mut self.rng);
            self.dwell_capacity_bps = p.mean_capacity_bps * (z * p.capacity_sigma).exp();
            self.dwell_extra_loss = if self.rng.gen_bool(0.3) {
                let u: f64 = self.rng.gen_range(1e-9..1.0);
                (-u.ln() * 0.002).min(0.01)
            } else {
                0.0
            };
        }

        fn advance_to(&mut self, t: Instant) {
            if t <= self.now {
                return;
            }
            self.now = t;
            while self.now >= self.dwell_until {
                let row = self.scenario.transition_row(self.state);
                let next = reference_categorical(&mut self.rng, &row);
                let resume_at = self.dwell_until;
                let saved_now = self.now;
                self.now = resume_at;
                self.enter_state(next);
                self.now = saved_now;
                if self.dwell_until <= resume_at {
                    self.dwell_until = resume_at + Duration::from_millis(500);
                }
            }
        }

        fn loss_rate(&self) -> f64 {
            self.scenario.params(self.state).loss_rate + self.dwell_extra_loss
        }

        fn base_rtt(&self) -> Duration {
            self.scenario.params(self.state).base_rtt
        }

        fn sample_rtt_jitter(&mut self) -> Duration {
            let mean_ms = self.scenario.params(self.state).rtt_jitter_ms;
            let u: f64 = self.rng.gen_range(1e-9..1.0);
            Duration::from_secs_f64(-u.ln() * mean_ms / 1e3)
        }
    }

    #[test]
    fn transition_rows_are_stochastic() {
        for scenario in SCENARIOS {
            let init: f64 = scenario.initial_distribution().iter().sum();
            assert!(
                (init - 1.0).abs() < 1e-9,
                "{scenario:?} init sums to {init}"
            );
            for s in ALL_STATES {
                let row_sum: f64 = scenario.transition_row(s).iter().sum();
                assert!(
                    (row_sum - 1.0).abs() < 1e-9,
                    "{scenario:?}/{s:?} row sums to {row_sum}"
                );
            }
        }
    }

    #[test]
    fn same_seed_reproduces_trajectory() {
        let mut a = channel(Scenario::Commuting, 5);
        let mut b = channel(Scenario::Commuting, 5);
        for step in 1..200u64 {
            let t = Instant::from_millis(step * 750);
            a.advance_to(t);
            b.advance_to(t);
            assert_eq!(a.state(), b.state(), "diverged at step {step}");
            assert_eq!(a.capacity_bps(), b.capacity_bps());
        }
    }

    #[test]
    fn different_sessions_see_different_trajectories() {
        let mut a = channel(Scenario::Commuting, 0);
        let mut b = channel(Scenario::Commuting, 1);
        let mut any_diff = false;
        for step in 1..100u64 {
            let t = Instant::from_secs(step);
            a.advance_to(t);
            b.advance_to(t);
            if a.state() != b.state() || a.capacity_bps() != b.capacity_bps() {
                any_diff = true;
            }
        }
        assert!(any_diff);
    }

    #[test]
    fn time_never_runs_backwards() {
        let mut ch = channel(Scenario::StaticHome, 0);
        ch.advance_to(Instant::from_secs(100));
        let state = ch.state();
        let cap = ch.capacity_bps();
        // Stale advance is a no-op.
        ch.advance_to(Instant::from_secs(50));
        assert_eq!(ch.now(), Instant::from_secs(100));
        assert_eq!(ch.state(), state);
        assert_eq!(ch.capacity_bps(), cap);
    }

    #[test]
    fn commuting_is_more_degraded_than_static_home() {
        // Over many sessions, the commuting scenario must spend clearly
        // more time in Poor/Outage — that asymmetry is what drives the
        // paper's encrypted-vs-cleartext differences.
        let seeds = SeedSequence::new(7);
        let mut degraded = [0u32; 2];
        let mut total = [0u32; 2];
        for (si, scenario) in [Scenario::StaticHome, Scenario::Commuting]
            .iter()
            .enumerate()
        {
            for idx in 0..60 {
                let mut ch = RadioChannel::new(*scenario, &seeds, idx);
                for step in 1..120u64 {
                    ch.advance_to(Instant::from_secs(step * 2));
                    total[si] += 1;
                    if matches!(ch.state(), RadioState::Poor | RadioState::Outage) {
                        degraded[si] += 1;
                    }
                }
            }
        }
        let frac_home = degraded[0] as f64 / total[0] as f64;
        let frac_commute = degraded[1] as f64 / total[1] as f64;
        assert!(
            frac_commute > 2.0 * frac_home,
            "home {frac_home:.3} vs commute {frac_commute:.3}"
        );
    }

    #[test]
    fn capacity_tracks_state_ordering_on_average() {
        let seeds = SeedSequence::new(21);
        let mut sums = [0.0f64; 5];
        let mut counts = [0u32; 5];
        for idx in 0..40 {
            let mut ch = RadioChannel::new(Scenario::Commuting, &seeds, idx);
            for step in 1..200u64 {
                ch.advance_to(Instant::from_secs(step));
                let i = ch.state().index();
                sums[i] += ch.capacity_bps();
                counts[i] += 1;
            }
        }
        let means: Vec<f64> = (0..5)
            .map(|i| {
                if counts[i] > 0 {
                    sums[i] / counts[i] as f64
                } else {
                    0.0
                }
            })
            .collect();
        // Excellent > Good > Fair > Poor > Outage wherever observed.
        for w in means.windows(2) {
            if w[0] > 0.0 && w[1] > 0.0 {
                assert!(w[0] > w[1], "means not ordered: {means:?}");
            }
        }
    }

    #[test]
    fn bdp_is_capacity_times_rtt() {
        let mut ch = channel(Scenario::StaticHome, 3);
        ch.advance_to(Instant::from_secs(1));
        let expected = ch.capacity_bps() * ch.base_rtt().as_secs_f64() / 8.0;
        assert!((ch.bdp_bytes() - expected).abs() < 1e-6);
    }

    /// Occupancy per state and mean residual dwell of `n` channels of
    /// `scenario` (streams `first..first + n`) advanced to `t` through
    /// the targets of `steps`.
    fn census(scenario: Scenario, first: u64, n: u64, steps: &[Instant]) -> ([f64; 5], f64) {
        let seeds = SeedSequence::new(2016);
        let mut occupancy = [0.0; 5];
        let mut residual = 0.0;
        for idx in first..first + n {
            let mut ch = RadioChannel::new(scenario, &seeds, idx);
            for &t in steps {
                ch.advance_to(t);
            }
            occupancy[ch.state().index()] += 1.0 / n as f64;
            residual += ch.dwell_until.duration_since(ch.now).as_secs_f64() / n as f64;
        }
        (occupancy, residual)
    }

    /// A channel that jumps the horizon lands in the law the walk
    /// reaches: per-state occupancy within 0.03 and mean residual dwell
    /// within 10% of channels walked to the same time in steps of half
    /// the target, at 4,000 channels a side.
    #[test]
    fn jump_past_the_horizon_matches_the_walk_in_law() {
        const N: u64 = 4_000;
        let t = Instant::ZERO + MIXING_HORIZON + Duration::from_secs(3600);
        let half = Instant(t.as_micros() / 2);
        for scenario in SCENARIOS {
            let (jumped, jumped_residual) = census(scenario, 0, N, &[t]);
            let (walked, walked_residual) = census(scenario, N, N, &[half, t]);
            for i in 0..5 {
                assert!(
                    (jumped[i] - walked[i]).abs() <= 0.03,
                    "{scenario:?}: occupancy jumped {jumped:.3?} vs walked {walked:.3?}"
                );
            }
            assert!(
                (jumped_residual / walked_residual - 1.0).abs() <= 0.10,
                "{scenario:?}: mean residual dwell jumped {jumped_residual:.2} s vs \
                 walked {walked_residual:.2} s"
            );
        }
    }

    /// A first advance of exactly the horizon still walks, bit for bit
    /// as the full stepper does; one microsecond more takes the jump.
    #[test]
    fn the_horizon_itself_walks_and_one_microsecond_more_jumps() {
        let seeds = SeedSequence::new(2016);
        let horizon = Instant::ZERO + MIXING_HORIZON;
        let past = horizon + Duration(1);
        for scenario in SCENARIOS {
            for idx in 0..20 {
                let mut walked = RadioChannel::new(scenario, &seeds, idx);
                let mut reference = ReferenceChannel::new(scenario, &seeds, idx);
                walked.advance_to(horizon);
                reference.advance_to(horizon);
                assert_eq!(walked.state(), reference.state);
                assert_eq!(
                    walked.capacity_bps().to_bits(),
                    reference.dwell_capacity_bps.to_bits()
                );
                assert_eq!(
                    walked.loss_rate().to_bits(),
                    reference.loss_rate().to_bits()
                );
                assert_eq!(walked.dwell_until, reference.dwell_until);
                assert_eq!(walked.sample_rtt_jitter(), reference.sample_rtt_jitter());

                let mut jumped = RadioChannel::new(scenario, &seeds, idx);
                jumped.advance_to(past);
                let mut expected = RadioChannel::new(scenario, &seeds, idx);
                expected.now = past;
                expected.enter_stationary(past);
                assert_eq!(jumped.state(), expected.state());
                assert_eq!(
                    jumped.capacity_bps().to_bits(),
                    expected.capacity_bps().to_bits()
                );
                assert_eq!(jumped.dwell_until, expected.dwell_until);
                assert!(jumped.dwell_until > past);
                assert_eq!(jumped.sample_rtt_jitter(), expected.sample_rtt_jitter());
            }
        }
    }

    proptest! {
        /// The fast walk is bit-identical to the full per-dwell stepper:
        /// same state and conditions at every target, and the same RNG
        /// position afterwards (the next jitter draw agrees). Targets
        /// mix sub-minute steps with jumps of up to ~14 h, spanning up
        /// to 30 days in all.
        #[test]
        fn prop_fast_walk_matches_the_full_stepper(
            scenario in 0usize..4,
            idx in 0u64..1_000_000,
            steps in proptest::collection::vec((proptest::bool::ANY, 0u64..51_840, 0u64..60_000_000), 1..51),
        ) {
            let scenario = SCENARIOS[scenario];
            let seeds = SeedSequence::new(2016);
            let mut fast = RadioChannel::new(scenario, &seeds, idx);
            let mut reference = ReferenceChannel::new(scenario, &seeds, idx);
            let mut t = Instant::ZERO;
            for (long, secs, micros) in steps {
                t += Duration(micros);
                if long {
                    t += Duration::from_secs(secs);
                }
                fast.advance_to(t);
                reference.advance_to(t);
                prop_assert_eq!(fast.state(), reference.state);
                prop_assert_eq!(fast.capacity_bps().to_bits(), reference.dwell_capacity_bps.to_bits());
                prop_assert_eq!(fast.loss_rate().to_bits(), reference.loss_rate().to_bits());
                prop_assert_eq!(fast.base_rtt(), reference.base_rtt());
                prop_assert_eq!(fast.sample_rtt_jitter(), reference.sample_rtt_jitter());
            }
        }

        #[test]
        fn prop_advance_is_monotone_and_total(steps in proptest::collection::vec(1u64..30, 1..50), idx in 0u64..1000) {
            let mut ch = channel(Scenario::Commuting, idx);
            let mut t = Instant::ZERO;
            for s in steps {
                t += Duration::from_secs(s);
                ch.advance_to(t);
                prop_assert_eq!(ch.now(), t);
                prop_assert!(ch.capacity_bps() > 0.0);
                prop_assert!(ch.loss_rate() >= 0.0 && ch.loss_rate() < 0.5);
            }
        }
    }
}
