//! Agent factories for the DCTCP family.

use netsim::flow::{FlowSpec, ReceiverHint};
use netsim::host::{AgentFactory, FlowAgent};

use crate::dctcp_family::{FamilySender, Flavor};
use crate::receiver::SimpleReceiver;

/// Builds [`FamilySender`]s of one flavor plus the shared receiver.
#[derive(Debug, Clone)]
pub struct FamilyFactory {
    flavor: Flavor,
}

impl FamilyFactory {
    /// A factory for the given flavor.
    pub fn new(flavor: Flavor) -> FamilyFactory {
        FamilyFactory { flavor }
    }

    /// Plain TCP Reno.
    pub fn reno() -> FamilyFactory {
        Self::new(Flavor::Reno)
    }

    /// DCTCP.
    pub fn dctcp() -> FamilyFactory {
        Self::new(Flavor::Dctcp)
    }

    /// D2TCP (deadlines come from flow specs).
    pub fn d2tcp() -> FamilyFactory {
        Self::new(Flavor::D2tcp)
    }

    /// L2DCT.
    pub fn l2dct() -> FamilyFactory {
        Self::new(Flavor::L2dct)
    }
}

impl AgentFactory for FamilyFactory {
    fn sender(&self, spec: &FlowSpec) -> Box<dyn FlowAgent> {
        Box::new(FamilySender::new(spec, self.flavor))
    }

    fn receiver(&self, hint: ReceiverHint) -> Box<dyn FlowAgent> {
        Box::new(SimpleReceiver::new(hint))
    }
}
