//! # transport — endpoint machinery and the self-adjusting transports
//!
//! This crate provides:
//!
//! * the reusable sender machinery ([`tx::TxEngine`]: windows, cumulative
//!   ACK processing, fast retransmit, go-back-N timeouts) and receiver
//!   machinery ([`receiver::SimpleReceiver`], [`tracker::ByteTracker`]);
//! * RTT estimation with RFC 6298-style RTO management ([`rtt`]);
//! * the four *self-adjusting endpoint* transports the paper evaluates
//!   against: TCP (Reno), DCTCP, D2TCP and L2DCT
//!   ([`dctcp_family::FamilySender`]), over the one DCTCP window law
//!   ([`window::DctcpWindow`]) that PASE's sender also runs.
//!
//! The arbitration-based (PDQ) and in-network-prioritization (pFabric)
//! schemes and PASE itself live in their own crates, all building on the
//! same [`tx::TxEngine`]/receiver substrate where it fits their design.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod dctcp_family;
pub mod factory;
pub mod params;
pub mod receiver;
pub mod rtt;
pub mod tracker;
pub mod tx;
pub mod window;

pub use dctcp_family::{FamilySender, Flavor};
pub use factory::FamilyFactory;
pub use params::FamilyConfig;
pub use receiver::{ReceiverConfig, SimpleReceiver};
pub use rtt::{RttEstimator, DEFAULT_BACKOFF_CAP};
pub use tracker::ByteTracker;
pub use tx::{AckKind, LossEvent, TxEngine, DEFAULT_MAX_CONSECUTIVE_RTOS};
pub use window::DctcpWindow;
