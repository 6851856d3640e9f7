//! Domain types shared across the `ecas` workspace.
//!
//! This crate defines the strongly-typed physical quantities used by the
//! energy- and context-aware streaming stack ([`units`]), the discrete
//! bitrate ladders from the paper ([`ladder`]), and the identifiers used to
//! address segments and tasks ([`ids`]).
//!
//! Everything here is deliberately small and dependency-light so that every
//! other crate in the workspace can build on a common vocabulary.
//!
//! # Examples
//!
//! ```
//! use ecas_types::units::{Mbps, Seconds, MegaBytes};
//! use ecas_types::ladder::BitrateLadder;
//!
//! // The 14-level evaluation ladder from Section V of the paper.
//! let ladder = BitrateLadder::evaluation();
//! assert_eq!(ladder.len(), 14);
//! assert_eq!(ladder.highest().bitrate(), Mbps::new(5.8));
//!
//! // A 2-second segment at 1.5 Mbps is 0.375 MB of data.
//! let level = ladder.index_of(Mbps::new(1.5)).unwrap();
//! let size: MegaBytes = ladder.segment_size(level, Seconds::new(2.0));
//! assert!((size.value() - 0.375).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod float;
pub mod ids;
pub mod ladder;
pub mod units;

pub use error::UnitError;
pub use ids::{SegmentIndex, TaskId};
pub use ladder::{BitrateLadder, LadderEntry, LevelIndex, Resolution};
pub use units::{Dbm, Joules, Mbps, MegaBytes, MetersPerSec2, QoeScore, Seconds, Watts};
