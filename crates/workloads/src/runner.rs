//! One-call experiment execution.
//!
//! A [`RunSpec`] is one fully specified case; lists of them are executed
//! through the deterministic parallel engine in [`crate::exec`], so
//! multi-case work scales with the machine while producing output
//! byte-identical to a sequential run.

use netsim::engine::EngineKind;
use netsim::flow::FlowSpec;
use netsim::ids::NodeId;
use netsim::invariants::InvariantConfig;
use netsim::sim::{RunLimit, RunOutcome, Simulation};
use netsim::time::SimTime;

use crate::metrics::{collect, RunMetrics};
use crate::scenarios::Scenario;
use crate::scheme::Scheme;

/// A fully specified run.
#[derive(Debug, Clone, Copy)]
pub struct RunSpec {
    /// Transport under test.
    pub scheme: Scheme,
    /// Workload and topology.
    pub scenario: Scenario,
    /// Offered load as a fraction of the scenario's bottleneck capacity.
    pub load: f64,
    /// RNG seed for the workload.
    pub seed: u64,
    /// Wall-clock backstop in simulated seconds (runs also stop when all
    /// measured flows finish).
    pub backstop_s: u64,
    /// The scheduler engine: the timing wheel, or the reference heap the
    /// wheel is held to case for case (`engine_diff`).
    pub engine: EngineKind,
}

impl RunSpec {
    /// A run with the default backstop.
    pub fn new(scheme: Scheme, scenario: Scenario, load: f64, seed: u64) -> RunSpec {
        RunSpec {
            scheme,
            scenario,
            load,
            seed,
            backstop_s: 120,
            engine: EngineKind::Wheel,
        }
    }

    /// Execute the run and collect metrics. The run's [`RunOutcome`] and
    /// its invariant audit are recorded in [`RunMetrics::outcome`] and
    /// [`RunMetrics::invariants`]; sweeps surface a truncated or violating
    /// run through [`backstop_warning`].
    pub fn run(&self) -> RunMetrics {
        self.run_with(|_, _, _| {}).0
    }

    /// [`RunSpec::run`] with a seam: `prepare` gets the built simulation,
    /// its hosts and the generated flow list before the flows are added —
    /// where a faulted run injects its plan, switches on health-aware
    /// routing, adds a flash crowd or installs a tracer. The finished
    /// simulation comes back too, for counters [`RunMetrics`] does not
    /// carry.
    ///
    /// This is the one path every experiment case runs: the invariant
    /// monitor is always on, and [`Simulation::check_invariants`] is
    /// always recorded.
    pub fn run_with(
        &self,
        prepare: impl FnOnce(&mut Simulation, &[NodeId], &mut Vec<FlowSpec>),
    ) -> (RunMetrics, Simulation) {
        let (mut sim, hosts) = self.scheme.build_sim_on(self.engine, &self.scenario.topo);
        sim.enable_invariants(InvariantConfig::default());
        let mut flows = self.scenario.generate_flows(self.load, self.seed, &hosts);
        prepare(&mut sim, &hosts, &mut flows);
        sim.add_flows(flows);
        let outcome = sim.run(RunLimit::until_measured_done(SimTime::from_secs(
            self.backstop_s,
        )));
        let mut m = collect(&sim, outcome);
        m.invariants = sim.check_invariants();
        (m, sim)
    }

    /// One-line description of the case for diagnostics.
    pub fn describe(&self) -> String {
        format!(
            "{} on {} at load {:.2} seed {}",
            self.scheme.name(),
            self.scenario.name,
            self.load,
            self.seed
        )
    }
}

/// The warning line for a run whose numbers cannot be trusted — its
/// backstop truncated the FCT population, or it broke an invariant — or
/// `None` for a clean run. Every caller of [`RunSpec::run_with`] acts on
/// this one line: figure sweeps note it per affected case instead of
/// silently averaging the run, `scale_smoke` asserts on it, chaos counts
/// it as a violation and `pase-sim` exits non-zero on it.
pub fn backstop_warning(spec: &RunSpec, m: &RunMetrics) -> Option<String> {
    let truncated = (m.outcome != RunOutcome::MeasuredComplete).then(|| {
        format!(
            "backstop hit ({:?} after {}s): {} finished only {}/{} measured flows",
            m.outcome,
            spec.backstop_s,
            spec.describe(),
            m.n_completed,
            m.n_flows
        )
    });
    let violated = (!m.invariants.is_clean()).then(|| {
        let found: Vec<String> = m
            .invariants
            .violations
            .iter()
            .map(|v| v.to_string())
            .collect();
        format!(
            "invariants violated by {}: {}",
            spec.describe(),
            found.join("; ")
        )
    });
    let parts: Vec<String> = truncated.into_iter().chain(violated).collect();
    (!parts.is_empty()).then(|| parts.join("; "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_run_produces_metrics() {
        let scenario = Scenario::all_to_all_intra(6, 30);
        let spec = RunSpec::new(Scheme::Dctcp, scenario, 0.4, 1);
        let m = spec.run();
        assert_eq!(m.n_completed, 30);
        assert_eq!(m.outcome, RunOutcome::MeasuredComplete);
        assert!(m.invariants.is_clean(), "{}", m.invariants);
        assert!(m.afct_ms > 0.0 && m.afct_ms.is_finite());
        assert!(m.p99_ms >= m.median_ms);
        assert!(m.sim_seconds > 0.0);
    }

    #[test]
    fn backstop_hit_is_recorded_and_described() {
        // A 0-second backstop fires before any measured flow can finish.
        let scenario = Scenario::all_to_all_intra(5, 10);
        let spec = RunSpec {
            backstop_s: 0,
            ..RunSpec::new(Scheme::Dctcp, scenario, 0.4, 1)
        };
        let m = spec.run();
        assert_eq!(m.outcome, RunOutcome::TimeLimit);
        assert!(m.n_completed < m.n_flows);
        let w = backstop_warning(&spec, &m).expect("truncated run must warn");
        assert!(w.contains("TimeLimit"), "{w}");
        assert!(w.contains("DCTCP"), "{w}");
        // A clean run produces no warning.
        let ok = RunSpec::new(Scheme::Dctcp, scenario, 0.4, 1);
        assert!(backstop_warning(&ok, &ok.run()).is_none());
    }

    #[test]
    fn runs_are_reproducible() {
        let scenario = Scenario::all_to_all_intra(5, 20);
        let a = RunSpec::new(Scheme::Pase, scenario, 0.5, 3).run();
        let b = RunSpec::new(Scheme::Pase, scenario, 0.5, 3).run();
        assert_eq!(a.fcts_ms, b.fcts_ms);
        assert_eq!(a.ctrl_pkts, b.ctrl_pkts);
        assert_eq!(a.events, b.events);
    }
}
