#![warn(missing_docs)]
//! High-level API tying the fbdr workspace together.
//!
//! * [`Replicator`] — a remote filter-based replica connected to a master
//!   directory: queries are answered locally when semantically contained
//!   in replicated content and forwarded to the master otherwise
//!   (optionally caching the result for temporal locality). Periodic
//!   [`Replicator::sync`] keeps replicated filters consistent via ReSync,
//!   and an optional `FilterSelector` adapts the stored filter set to
//!   the access pattern.
//! * [`experiment`] — the trace-replay engine regenerating the paper's
//!   figures: hit-ratio vs replica size, update traffic vs hit ratio, hit
//!   ratio vs number of stored filters.
//!
//! # Example
//!
//! ```
//! use fbdr_core::Replicator;
//! use fbdr_ldap::{Entry, Filter, SearchRequest};
//! use fbdr_resync::SyncMaster;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut master = SyncMaster::new();
//! master.dit_mut().add_suffix("o=xyz".parse()?);
//! master.dit_mut().add(Entry::new("o=xyz".parse()?))?;
//! master.dit_mut().add(
//!     Entry::new("cn=a,o=xyz".parse()?)
//!         .with("objectclass", "person")
//!         .with("serialNumber", "045612"),
//! )?;
//!
//! let mut repl = Replicator::new(master, 50);
//! repl.install_filter(SearchRequest::from_root(Filter::parse("(serialNumber=0456*)")?))?;
//!
//! let q = SearchRequest::from_root(Filter::parse("(serialNumber=045612)")?);
//! let (entries, served) = repl.search(&q);
//! assert_eq!(entries.len(), 1);
//! assert_eq!(served, fbdr_core::ServedBy::Replica);
//! # Ok(())
//! # }
//! ```

pub mod deploy;
pub mod experiment;

mod replicator;

pub use replicator::{Replicator, ReplicatorReport, ServedBy};
