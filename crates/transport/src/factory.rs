//! Agent factories for the DCTCP family.

use netsim::flow::{FlowSpec, ReceiverHint};
use netsim::host::{AgentFactory, FlowAgent};

use crate::dctcp_family::{FamilySender, Flavor};
use crate::params::FamilyConfig;
use crate::receiver::SimpleReceiver;

/// Builds [`FamilySender`]s of one flavor plus the shared receiver.
#[derive(Debug, Clone)]
pub struct FamilyFactory {
    flavor: Flavor,
    cfg: FamilyConfig,
}

impl FamilyFactory {
    /// A factory for the given flavor with the given parameters.
    pub fn new(flavor: Flavor, cfg: FamilyConfig) -> FamilyFactory {
        FamilyFactory { flavor, cfg }
    }

    /// Plain TCP Reno with default parameters.
    pub fn reno() -> FamilyFactory {
        Self::new(Flavor::Reno, FamilyConfig::default())
    }

    /// DCTCP with default parameters.
    pub fn dctcp() -> FamilyFactory {
        Self::new(Flavor::Dctcp, FamilyConfig::default())
    }

    /// D2TCP with default parameters (deadlines come from flow specs).
    pub fn d2tcp() -> FamilyFactory {
        Self::new(Flavor::D2tcp, FamilyConfig::default())
    }

    /// L2DCT with default parameters.
    pub fn l2dct() -> FamilyFactory {
        Self::new(Flavor::L2dct, FamilyConfig::default())
    }
}

impl AgentFactory for FamilyFactory {
    fn sender(&self, spec: &FlowSpec) -> Box<dyn FlowAgent> {
        Box::new(FamilySender::new(spec, self.flavor, self.cfg))
    }

    fn receiver(&self, hint: ReceiverHint) -> Box<dyn FlowAgent> {
        Box::new(SimpleReceiver::new(hint))
    }
}
