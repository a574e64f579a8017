//! # pfabric — the in-network-prioritization baseline
//!
//! A from-scratch implementation of pFabric (Alizadeh et al., SIGCOMM'13),
//! the "best performing" comparison point of the PASE paper (§4.2.2):
//!
//! * [`PFabricQdisc`] — shallow switch queues that schedule the
//!   lowest-rank (smallest remaining size) flow first and drop the
//!   highest-rank packet on overflow;
//! * [`PFabricSender`] — the minimal endpoint: start at line rate, fixed
//!   window and RTO, per-segment SACK recovery, probe mode under
//!   persistent loss.
//!
//! The PASE paper's critique of pFabric — switch-local decisions waste
//! upstream bandwidth on packets that die downstream (their Figure 3/4) —
//! emerges from exactly these mechanisms.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod qdisc;
mod sender;

pub use qdisc::PFabricQdisc;
pub use sender::{PFabricConfig, PFabricSender, CWND_PKTS, TIMEOUTS_BEFORE_PROBE};

use netsim::host::AgentFactory;
use transport::SimpleReceiver;

/// pFabric's endpoints: its senders, the shared receiver.
pub fn agents(cfg: PFabricConfig) -> AgentFactory {
    AgentFactory::new(
        move |spec| PFabricSender::new(spec, cfg),
        SimpleReceiver::new,
    )
}
