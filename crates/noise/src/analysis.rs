//! The iterative linear noise analysis (paper §1–§2, refs \[3\]\[4\]\[5\]).

use dna_netlist::{Circuit, NetId};
use dna_sta::{LinearDelayModel, NetTiming, StaConfig, StaError, TimingReport};
use dna_waveform::{superposition, Envelope, TimeInterval};

use crate::{envelope_calc, ChargeSharingModel, CouplingMask};

/// How the delay-noise / timing-window iteration is seeded.
///
/// Per Zhou's lattice formulation (paper ref \[4\]) the iteration can start
/// from the optimistic assumption that no windows overlap (ascending
/// iteration) or the pessimistic assumption that all of them do
/// (descending iteration); both converge to fixpoints that bound the true
/// solution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StartAssumption {
    /// Start from zero delay noise (optimistic, ascending iteration).
    #[default]
    NoOverlap,
    /// Start from a pessimistic upper-bound noise (descending iteration).
    AllOverlap,
}

/// Configuration of the noise analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseConfig {
    /// Boundary conditions of the underlying STA.
    pub sta: StaConfig,
    /// Electrical coupling model.
    pub coupling: ChargeSharingModel,
    /// Victim holding resistance (kΩ) used when the victim is a primary
    /// input (no driving cell).
    pub pi_resistance: f64,
    /// Iteration cap. Industrial tools report 3–4 iterations to converge
    /// (paper §1); the default leaves generous headroom.
    pub max_iterations: usize,
    /// Convergence threshold in ps on the largest per-net noise change.
    pub tolerance: f64,
    /// Iteration seed.
    pub start: StartAssumption,
}

impl Default for NoiseConfig {
    fn default() -> Self {
        Self {
            sta: StaConfig::default(),
            coupling: ChargeSharingModel::new(),
            pi_resistance: 1.0,
            max_iterations: 25,
            tolerance: 1e-6,
            start: StartAssumption::NoOverlap,
        }
    }
}

/// The iterative delay-noise analysis engine.
///
/// Runs the classical chicken-and-egg loop: timing windows determine noise
/// envelopes, delay noise widens timing windows, repeat until the per-net
/// noise vector stops changing. [`run`](Self::run) analyzes all couplings;
/// [`run_with_mask`](Self::run_with_mask) restricts the coupling set,
/// which is the primitive both top-k algorithms and the brute-force
/// baseline are built on; [`run_with_mask_until`](Self::run_with_mask_until)
/// is the same loop with a caller's stop predicate, which an ascending run
/// feeds a lower bound on its final circuit delay after each iteration.
///
/// # Example
///
/// ```
/// use dna_netlist::suite;
/// use dna_noise::{NoiseAnalysis, NoiseConfig};
///
/// let circuit = suite::benchmark("i1", 7)?;
/// let analysis = NoiseAnalysis::new(&circuit, NoiseConfig::default());
/// let report = analysis.run()?;
/// // Crosstalk can only slow the circuit down.
/// assert!(report.circuit_delay() >= report.noiseless_delay());
/// assert!(report.converged());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct NoiseAnalysis<'c> {
    circuit: &'c Circuit,
    config: NoiseConfig,
    model: LinearDelayModel,
}

impl<'c> NoiseAnalysis<'c> {
    /// Creates an engine over `circuit`.
    #[must_use]
    pub fn new(circuit: &'c Circuit, config: NoiseConfig) -> Self {
        Self { circuit, config, model: LinearDelayModel::new() }
    }

    /// The analyzed circuit.
    #[must_use]
    pub fn circuit(&self) -> &'c Circuit {
        self.circuit
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &NoiseConfig {
        &self.config
    }

    /// Full noise analysis with every coupling enabled.
    ///
    /// # Errors
    ///
    /// Propagates [`StaError`] from the underlying timing runs.
    pub fn run(&self) -> Result<NoiseReport, StaError> {
        self.run_with_mask(&CouplingMask::all(self.circuit))
    }

    /// Noise analysis with only the couplings enabled by `mask`.
    ///
    /// # Errors
    ///
    /// Propagates [`StaError`] from the underlying timing runs.
    pub fn run_with_mask(&self, mask: &CouplingMask) -> Result<NoiseReport, StaError> {
        let report = self.run_with_mask_until(mask, |_| false)?;
        Ok(report.expect("a run that is never told to stop finishes"))
    }

    /// Noise analysis under `mask` that a caller may abandon part-way —
    /// the one fixpoint loop behind [`run_with_mask`](Self::run_with_mask).
    ///
    /// After every iteration that neither converged nor hit the iteration
    /// cap, `stop` is called with the circuit delay of that iterate; if it
    /// returns `true` the run is abandoned and yields `Ok(None)`. Under
    /// [`StartAssumption::NoOverlap`] each such delay is a **lower bound**
    /// on the finished run's [`circuit_delay`](NoiseReport::circuit_delay)
    /// (Zhou's ascending iteration, paper ref \[4\]): the noise vector only
    /// grows under the max join, and noisy STA's latest arrival is
    /// monotone in it (`max` and IEEE `+` are), so the reported delays
    /// never decrease and never exceed the final one. Descending runs
    /// ([`StartAssumption::AllOverlap`]) give no such bound and never call
    /// `stop`.
    ///
    /// An abandoned run cannot hide an error: every later timing run would
    /// see noise `max(prev, fresh)` with `prev >= 0`, which the STA
    /// accepts, so only the runs before the first `stop` call can fail.
    ///
    /// # Errors
    ///
    /// Propagates [`StaError`] from the underlying timing runs.
    pub fn run_with_mask_until(
        &self,
        mask: &CouplingMask,
        mut stop: impl FnMut(f64) -> bool,
    ) -> Result<Option<NoiseReport>, StaError> {
        let noiseless = TimingReport::run(self.circuit, &self.model, &self.config.sta)?;
        let n = self.circuit.num_nets();
        let ascending = self.config.start == StartAssumption::NoOverlap;

        let mut noise: Vec<f64> =
            if ascending { vec![0.0; n] } else { self.pessimistic_seed(&noiseless, mask) };

        let mut iterations = 0;
        let mut converged = false;
        let mut timing =
            TimingReport::run_with_noise(self.circuit, &self.model, &self.config.sta, &noise)?;
        while iterations < self.config.max_iterations {
            iterations += 1;
            let fresh = self.noise_pass(timing.timings(), &noise, mask);
            // Ascending runs join with max: the noise vector only grows, so
            // the loop terminates at a (possibly conservative) fixpoint —
            // the update is not exactly monotone because a victim shifted
            // later by fanin noise can drift out of a fixed envelope, and
            // the join absorbs that. Descending runs iterate the update
            // directly from the pessimistic seed and rely on the delta
            // check; both land within tolerance of each other in practice.
            let mut delta: f64 = 0.0;
            for i in 0..n {
                let next = if ascending { noise[i].max(fresh[i]) } else { fresh[i] };
                delta = delta.max((next - noise[i]).abs());
                noise[i] = next;
            }
            timing =
                TimingReport::run_with_noise(self.circuit, &self.model, &self.config.sta, &noise)?;
            if delta < self.config.tolerance {
                converged = true;
                break;
            }
            if ascending && iterations < self.config.max_iterations && stop(timing.circuit_delay())
            {
                return Ok(None);
            }
        }

        Ok(Some(NoiseReport { noiseless, noisy: timing, noise, iterations, converged }))
    }

    /// One sweep: the delay noise each net would see given the current
    /// timing windows.
    ///
    /// Aggressor envelopes come from the *noisy* windows (that is how
    /// indirect aggressors act, paper Fig. 1), but each victim's own
    /// previously assigned noise is subtracted from its transition first —
    /// superimposing onto the already-shifted transition would double
    /// count.
    fn noise_pass(&self, timings: &[NetTiming], noise: &[f64], mask: &CouplingMask) -> Vec<f64> {
        self.circuit
            .net_ids()
            .map(|v| {
                let parts =
                    envelope_calc::victim_envelopes(self.circuit, &self.config, v, timings, |id| {
                        mask.is_enabled(id)
                    });
                if parts.is_empty() {
                    return 0.0;
                }
                let combined = Envelope::sum_all(parts.iter().map(|(_, e)| e));
                let t = &timings[v.index()];
                let base = NetTiming::new(
                    t.eat().min(t.lat() - noise[v.index()]),
                    t.lat() - noise[v.index()],
                    t.slew(),
                );
                superposition::delay_noise(&base.latest_transition(), &combined)
            })
            .collect()
    }

    /// Pessimistic per-net seed: every aggressor window stretched to the
    /// end of time (paper §3.2 uses the same construction for the
    /// dominance-interval upper bound).
    fn pessimistic_seed(&self, noiseless: &TimingReport, mask: &CouplingMask) -> Vec<f64> {
        let horizon = noiseless.circuit_delay() * 2.0 + 1_000.0;
        let widened: Vec<NetTiming> = noiseless
            .timings()
            .iter()
            .map(|t| NetTiming::new(t.eat(), t.lat() + horizon, t.slew()))
            .collect();
        // Victim transitions must stay at their noiseless positions while
        // aggressor windows are widened, so evaluate per victim.
        self.circuit
            .net_ids()
            .map(|v| {
                let parts = envelope_calc::victim_envelopes(
                    self.circuit,
                    &self.config,
                    v,
                    &widened,
                    |id| mask.is_enabled(id),
                );
                if parts.is_empty() {
                    return 0.0;
                }
                let combined = Envelope::sum_all(parts.iter().map(|(_, e)| e));
                superposition::delay_noise(
                    &noiseless.timings()[v.index()].latest_transition(),
                    &combined,
                )
            })
            .collect()
    }

    /// Upper bound on the delay noise of `victim` under `mask`, obtained by
    /// standard noise analysis with effectively infinite aggressor timing
    /// windows (paper §3.2). Also the source of the **dominance interval**.
    #[must_use]
    pub fn delay_noise_upper_bound(
        &self,
        victim: NetId,
        timings: &[NetTiming],
        mask: &CouplingMask,
    ) -> f64 {
        let horizon = timings.iter().map(NetTiming::lat).fold(0.0_f64, f64::max) * 2.0 + 1_000.0;
        let widened: Vec<NetTiming> =
            timings.iter().map(|t| NetTiming::new(t.eat(), t.lat() + horizon, t.slew())).collect();
        let parts =
            envelope_calc::victim_envelopes(self.circuit, &self.config, victim, &widened, |id| {
                mask.is_enabled(id)
            });
        if parts.is_empty() {
            return 0.0;
        }
        let combined = Envelope::sum_all(parts.iter().map(|(_, e)| e));
        superposition::delay_noise(&timings[victim.index()].latest_transition(), &combined)
    }

    /// The dominance interval of `victim` (paper §3.2): from the noiseless
    /// victim `t50` to the upper-bound noisy `t50`. Envelopes only need to
    /// encapsulate each other inside this interval to dominate.
    #[must_use]
    pub fn dominance_interval(
        &self,
        victim: NetId,
        timings: &[NetTiming],
        mask: &CouplingMask,
    ) -> TimeInterval {
        let t50 = timings[victim.index()].lat();
        let ub = self.delay_noise_upper_bound(victim, timings, mask);
        TimeInterval::new(t50, t50 + ub.max(self.config.tolerance))
    }
}

/// Result of an iterative noise analysis.
#[derive(Debug, Clone)]
pub struct NoiseReport {
    noiseless: TimingReport,
    noisy: TimingReport,
    noise: Vec<f64>,
    iterations: usize,
    converged: bool,
}

impl NoiseReport {
    /// Circuit delay including crosstalk delay noise.
    #[must_use]
    pub fn circuit_delay(&self) -> f64 {
        self.noisy.circuit_delay()
    }

    /// Circuit delay of the noiseless analysis.
    #[must_use]
    pub fn noiseless_delay(&self) -> f64 {
        self.noiseless.circuit_delay()
    }

    /// Delay noise injected at `net` (ps).
    #[must_use]
    pub fn delay_noise(&self, net: NetId) -> f64 {
        self.noise[net.index()]
    }

    /// Per-net delay noise, indexed by net.
    #[must_use]
    pub fn noise(&self) -> &[f64] {
        &self.noise
    }

    /// Final (noisy) timing report.
    #[must_use]
    pub fn noisy_timing(&self) -> &TimingReport {
        &self.noisy
    }

    /// Noiseless timing report.
    #[must_use]
    pub fn noiseless_timing(&self) -> &TimingReport {
        &self.noiseless
    }

    /// Iterations the fixpoint loop performed.
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Whether the loop converged below tolerance before the iteration cap.
    #[must_use]
    pub fn converged(&self) -> bool {
        self.converged
    }

    /// Total delay noise attributable to crosstalk at the circuit level.
    #[must_use]
    pub fn total_delay_noise(&self) -> f64 {
        self.circuit_delay() - self.noiseless_delay()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dna_netlist::{generator, CellKind, CircuitBuilder, CouplingId, Library};

    fn coupled_pair() -> (Circuit, CouplingId) {
        // Two parallel buffer chains with a coupling between their outputs.
        let mut b = CircuitBuilder::new(Library::cmos013());
        let a = b.input("a");
        let x = b.input("x");
        let v = b.gate(CellKind::Buf, "v", &[a]).unwrap();
        let g = b.gate(CellKind::Buf, "g", &[x]).unwrap();
        b.output(v);
        b.output(g);
        let cc = b.coupling(v, g, 8.0).unwrap();
        (b.build().unwrap(), cc)
    }

    #[test]
    fn noise_increases_circuit_delay() {
        let (c, _) = coupled_pair();
        let report = NoiseAnalysis::new(&c, NoiseConfig::default()).run().unwrap();
        assert!(report.converged());
        assert!(report.circuit_delay() > report.noiseless_delay());
        assert!(report.total_delay_noise() > 0.0);
    }

    #[test]
    fn masking_the_coupling_removes_noise() {
        let (c, cc) = coupled_pair();
        let engine = NoiseAnalysis::new(&c, NoiseConfig::default());
        let masked = engine.run_with_mask(&CouplingMask::all(&c).without(&[cc])).unwrap();
        assert!((masked.circuit_delay() - masked.noiseless_delay()).abs() < 1e-9);
        assert_eq!(masked.noise().iter().copied().fold(0.0_f64, f64::max), 0.0);
    }

    #[test]
    fn ascending_iteration_is_monotone_and_converges() {
        let c =
            generator::generate(&generator::GeneratorConfig::new(40, 120).with_seed(11)).unwrap();
        let report = NoiseAnalysis::new(&c, NoiseConfig::default()).run().unwrap();
        assert!(report.converged(), "did not converge in {} iterations", report.iterations());
        assert!(report.noise().iter().all(|&x| x >= 0.0));
        assert!(report.circuit_delay() >= report.noiseless_delay() - 1e-9);
    }

    #[test]
    fn pessimistic_start_bounds_optimistic() {
        let c = generator::generate(&generator::GeneratorConfig::new(30, 90).with_seed(3)).unwrap();
        let optimistic = NoiseAnalysis::new(&c, NoiseConfig::default()).run().unwrap();
        let pessimistic = NoiseAnalysis::new(
            &c,
            NoiseConfig { start: StartAssumption::AllOverlap, ..NoiseConfig::default() },
        )
        .run()
        .unwrap();
        // Both seeds converge to nearby solutions (the update is only
        // approximately monotone, see run_with_mask); agreement within a
        // few percent of the total noise is the practical criterion.
        assert!(pessimistic.converged());
        assert!(optimistic.converged());
        let gap = (pessimistic.circuit_delay() - optimistic.circuit_delay()).abs();
        assert!(
            gap <= 0.05 * optimistic.circuit_delay(),
            "fixpoints too far apart: {} vs {}",
            pessimistic.circuit_delay(),
            optimistic.circuit_delay()
        );
        // Both include at least the noiseless delay.
        assert!(pessimistic.circuit_delay() >= pessimistic.noiseless_delay() - 1e-9);
    }

    #[test]
    fn upper_bound_dominates_converged_noise() {
        let (c, _) = coupled_pair();
        let engine = NoiseAnalysis::new(&c, NoiseConfig::default());
        let mask = CouplingMask::all(&c);
        let report = engine.run().unwrap();
        for net in c.net_ids() {
            let ub = engine.delay_noise_upper_bound(net, report.noisy_timing().timings(), &mask);
            assert!(
                ub + 1e-9 >= report.delay_noise(net),
                "upper bound {ub} below converged noise {} at {net}",
                report.delay_noise(net)
            );
        }
    }

    #[test]
    fn dominance_interval_starts_at_victim_t50() {
        let (c, _) = coupled_pair();
        let engine = NoiseAnalysis::new(&c, NoiseConfig::default());
        let mask = CouplingMask::all(&c);
        let report = engine.run().unwrap();
        let v = c.net_by_name("v").unwrap();
        let iv = engine.dominance_interval(v, report.noisy_timing().timings(), &mask);
        assert!((iv.lo() - report.noisy_timing().timing(v).lat()).abs() < 1e-9);
        assert!(iv.width() > 0.0);
    }

    #[test]
    fn isolated_nets_have_zero_noise() {
        // No couplings at all.
        let mut b = CircuitBuilder::new(Library::cmos013());
        let a = b.input("a");
        let y = b.gate(CellKind::Inv, "y", &[a]).unwrap();
        b.output(y);
        let c = b.build().unwrap();
        let report = NoiseAnalysis::new(&c, NoiseConfig::default()).run().unwrap();
        assert_eq!(report.total_delay_noise(), 0.0);
        assert_eq!(report.iterations(), 1);
        assert!(report.converged());
    }
}
