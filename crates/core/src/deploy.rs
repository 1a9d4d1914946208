//! Deployment: partial replicas as nodes in a simulated distributed
//! directory.
//!
//! [`ReplicaNode`] implements [`DirectoryService`]: queries semantically
//! contained in its replicated content are answered locally; everything
//! else gets a *default referral* to the master — exactly how the paper's
//! replica behaves at the protocol level (§3: "the meta information is
//! used to determine if an incoming query is semantically contained in
//! any stored query. Otherwise a referral is generated").
//! [`SubtreeReplicaNode`] does the same for the conventional subtree
//! model, so both replica types register in a [`Network`](fbdr_net::Network)
//! via `add_service` like any other node.
//!
//! Neither node wraps its replica in an exclusive lock on the read path:
//! `FilterReplica` answers from immutable content snapshots, so
//! [`ReplicaNode::handle_search`](DirectoryService::handle_search) runs
//! concurrently on any number of client threads, even while a
//! [`FilterReplica::sync_with`] cycle on [`ReplicaNode::replica`] is
//! mid-way on another.
//!
//! ```
//! use fbdr_core::deploy::ReplicaNode;
//! use fbdr_dit::{DitStore, NamingContext};
//! use fbdr_ldap::{Entry, Filter, SearchRequest, Scope};
//! use fbdr_net::{Network, Server};
//! use fbdr_replica::FilterReplica;
//! use fbdr_resync::SyncMaster;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // Master server and its data.
//! let mut dit = DitStore::new();
//! dit.add_suffix("o=xyz".parse()?);
//! dit.add(Entry::new("o=xyz".parse()?).with("objectclass", "organization"))?;
//! dit.add(Entry::new("cn=a,o=xyz".parse()?)
//!     .with("objectclass", "person")
//!     .with("serialNumber", "045612"))?;
//!
//! // The replica loads one filter from the master's content…
//! let mut sync_master = SyncMaster::with_dit(dit.clone());
//! let replica = FilterReplica::new(0);
//! replica.install_filter(&mut sync_master,
//!     SearchRequest::from_root(Filter::parse("(serialNumber=0456*)")?))?;
//!
//! // …and both are deployed into one network.
//! let mut net = Network::new();
//! net.add_server(Server::new("ldap://master", dit,
//!     vec![NamingContext::new("o=xyz".parse()?)], None));
//! net.add_service(Box::new(ReplicaNode::new("ldap://replica", replica, "ldap://master")));
//!
//! // A contained query is answered by the replica in one round trip.
//! let mut client = net.client();
//! let q = SearchRequest::from_root(Filter::parse("(serialNumber=045612)")?);
//! let res = client.search("ldap://replica", &q)?;
//! assert_eq!(res.entries.len(), 1);
//! assert_eq!(res.stats.round_trips, 1);
//!
//! // A miss is referred to the master: two round trips.
//! let q = SearchRequest::from_root(Filter::parse("(serialNumber=999999)")?);
//! let res = client.search("ldap://replica", &q)?;
//! assert_eq!(res.stats.round_trips, 2);
//! # Ok(())
//! # }
//! ```

use fbdr_dit::DitStore;
use fbdr_net::{DirectoryService, ServerOutcome};
use fbdr_replica::{FilterReplica, SubtreeReplica};
use fbdr_resync::SyncTraffic;
use parking_lot::RwLock;

/// A filter-based replica addressable as a directory node: local answers
/// for contained queries, a default referral to the master otherwise.
///
/// The replica is held directly — no mutex. [`FilterReplica`]'s own
/// read/write split makes `handle_search` safe from any number of threads
/// while a sync cycle runs; the node is pure routing glue.
#[derive(Debug)]
pub struct ReplicaNode {
    url: String,
    replica: FilterReplica,
    master_url: String,
}

impl ReplicaNode {
    /// Wraps a (loaded) replica as a network node referring misses to
    /// `master_url`.
    pub fn new(
        url: impl Into<String>,
        replica: FilterReplica,
        master_url: impl Into<String>,
    ) -> Self {
        ReplicaNode { url: url.into(), replica, master_url: master_url.into() }
    }

    /// The underlying replica (all of whose operations take `&self`).
    pub fn replica(&self) -> &FilterReplica {
        &self.replica
    }

    /// Hit statistics accumulated while serving.
    pub fn stats(&self) -> fbdr_replica::ReplicaStats {
        self.replica.stats()
    }

    /// Consumes the node, returning the replica.
    pub fn into_replica(self) -> FilterReplica {
        self.replica
    }
}

impl DirectoryService for ReplicaNode {
    fn url(&self) -> &str {
        &self.url
    }

    fn handle_search(&self, req: &fbdr_ldap::SearchRequest) -> ServerOutcome {
        match self.replica.try_answer(req) {
            Some(entries) => ServerOutcome::Results { entries, continuations: Vec::new() },
            None => ServerOutcome::DefaultReferral(self.master_url.clone()),
        }
    }
}

/// A subtree replica addressable as a directory node, for head-to-head
/// deployments against [`ReplicaNode`] (§3.4.1 vs. the paper's model).
///
/// Unlike `FilterReplica`, the subtree store is not snapshot-isolated, so
/// the node holds an [`RwLock`]: concurrent readers share the read lock;
/// [`sync_from`](SubtreeReplicaNode::sync_from) briefly takes the write
/// lock for the whole cycle.
#[derive(Debug)]
pub struct SubtreeReplicaNode {
    url: String,
    replica: RwLock<SubtreeReplica>,
    master_url: String,
}

impl SubtreeReplicaNode {
    /// Wraps a (loaded) subtree replica as a network node referring
    /// misses to `master_url`.
    pub fn new(
        url: impl Into<String>,
        replica: SubtreeReplica,
        master_url: impl Into<String>,
    ) -> Self {
        SubtreeReplicaNode {
            url: url.into(),
            replica: RwLock::new(replica),
            master_url: master_url.into(),
        }
    }

    /// Hit statistics accumulated while serving.
    pub fn stats(&self) -> fbdr_replica::ReplicaStats {
        self.replica.read().stats()
    }

    /// Ships every pending change of the held contexts from the master
    /// (readers block for the duration of the cycle). Returns the sync
    /// traffic.
    pub fn sync_from(&self, master: &DitStore) -> SyncTraffic {
        self.replica.write().sync_from(master)
    }
}

impl DirectoryService for SubtreeReplicaNode {
    fn url(&self) -> &str {
        &self.url
    }

    fn handle_search(&self, req: &fbdr_ldap::SearchRequest) -> ServerOutcome {
        match self.replica.read().try_answer(req) {
            Some(entries) => ServerOutcome::Results { entries, continuations: Vec::new() },
            None => ServerOutcome::DefaultReferral(self.master_url.clone()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fbdr_dit::{DitStore, NamingContext};
    use fbdr_ldap::{Entry, Filter, Scope, SearchRequest};
    use fbdr_net::{Network, Server};
    use fbdr_resync::SyncMaster;

    fn world() -> (Network, &'static str) {
        let mut dit = DitStore::new();
        dit.add_suffix("o=xyz".parse().unwrap());
        dit.add(Entry::new("o=xyz".parse().unwrap()).with("objectclass", "organization"))
            .unwrap();
        for i in 0..20 {
            dit.add(
                Entry::new(format!("cn=e{i},o=xyz").parse().unwrap())
                    .with("objectclass", "person")
                    .with("serialNumber", &format!("04{i:04}")),
            )
            .unwrap();
        }
        let mut master = SyncMaster::with_dit(dit.clone());
        let replica = FilterReplica::new(0);
        replica
            .install_filter(
                &mut master,
                SearchRequest::from_root(Filter::parse("(serialNumber=04000*)").unwrap()),
            )
            .unwrap();
        let mut net = Network::new();
        net.add_server(Server::new(
            "ldap://master",
            dit,
            vec![NamingContext::new("o=xyz".parse().unwrap())],
            None,
        ));
        net.add_service(Box::new(ReplicaNode::new("ldap://replica", replica, "ldap://master")));
        (net, "ldap://replica")
    }

    #[test]
    fn hit_is_one_round_trip_miss_is_two() {
        let (net, replica_url) = world();
        let mut client = net.client();
        let hit = SearchRequest::from_root(Filter::parse("(serialNumber=040007)").unwrap());
        let res = client.search(replica_url, &hit).unwrap();
        assert_eq!(res.stats.round_trips, 1);
        assert_eq!(res.entries.len(), 1);

        let miss = SearchRequest::from_root(Filter::parse("(serialNumber=040015)").unwrap());
        let res = client.search(replica_url, &miss).unwrap();
        assert_eq!(res.stats.round_trips, 2);
        assert_eq!(res.entries.len(), 1);
        assert_eq!(res.stats.referrals_received, 1);
    }

    #[test]
    fn deployed_node_resyncs_in_place() {
        let mut dit = DitStore::new();
        dit.add_suffix("o=xyz".parse().unwrap());
        dit.add(Entry::new("o=xyz".parse().unwrap()).with("objectclass", "organization"))
            .unwrap();
        dit.add(
            Entry::new("cn=a,o=xyz".parse().unwrap())
                .with("objectclass", "person")
                .with("serialNumber", "040001"),
        )
        .unwrap();
        let mut master = SyncMaster::with_dit(dit);
        let replica = FilterReplica::new(0);
        replica
            .install_filter(
                &mut master,
                SearchRequest::from_root(Filter::parse("(serialNumber=0400*)").unwrap()),
            )
            .unwrap();
        let node = ReplicaNode::new("ldap://replica", replica, "ldap://master");

        master
            .apply(fbdr_dit::UpdateOp::Add(
                Entry::new("cn=b,o=xyz".parse().unwrap())
                    .with("objectclass", "person")
                    .with("serialNumber", "040002"),
            ))
            .unwrap();
        let mut driver = fbdr_resync::SyncDriver::default();
        let t = node.replica().sync_with(&mut master, &mut driver).unwrap();
        assert_eq!(t.full_entries, 1);
        assert_eq!(driver.stats().attempts, 1);

        let q = SearchRequest::from_root(Filter::parse("(serialNumber=040002)").unwrap());
        match node.handle_search(&q) {
            ServerOutcome::Results { entries, .. } => assert_eq!(entries.len(), 1),
            other => panic!("expected local answer, got {other:?}"),
        }
    }

    #[test]
    fn replica_node_tracks_stats() {
        let (net, replica_url) = world();
        let mut client = net.client();
        for i in 0..6 {
            let q = SearchRequest::from_root(
                Filter::parse(&format!("(serialNumber=04{:04})", i * 3)).unwrap(),
            );
            client.search(replica_url, &q).unwrap();
        }
        let node = net.server(replica_url).expect("node exists");
        assert_eq!(node.url(), replica_url);
    }

    #[test]
    fn subtree_node_answers_and_refers() {
        let mut dit = DitStore::new();
        dit.add_suffix("o=xyz".parse().unwrap());
        dit.add(Entry::new("o=xyz".parse().unwrap()).with("objectclass", "organization"))
            .unwrap();
        dit.add(Entry::new("c=us,o=xyz".parse().unwrap()).with("objectclass", "country"))
            .unwrap();
        dit.add(
            Entry::new("cn=a,c=us,o=xyz".parse().unwrap())
                .with("objectclass", "person")
                .with("serialNumber", "040001"),
        )
        .unwrap();

        let mut sub = SubtreeReplica::new();
        sub.replicate_context(&dit, NamingContext::new("c=us,o=xyz".parse().unwrap()));

        let mut net = Network::new();
        net.add_server(Server::new(
            "ldap://master",
            dit.clone(),
            vec![NamingContext::new("o=xyz".parse().unwrap())],
            None,
        ));
        net.add_service(Box::new(SubtreeReplicaNode::new(
            "ldap://sub",
            sub,
            "ldap://master",
        )));

        let mut client = net.client();
        // A query based inside the held context: answered locally.
        let hit = SearchRequest::new(
            "c=us,o=xyz".parse().unwrap(),
            Scope::Subtree,
            Filter::parse("(serialNumber=04*)").unwrap(),
        );
        let res = client.search("ldap://sub", &hit).unwrap();
        assert_eq!(res.stats.round_trips, 1);
        assert_eq!(res.entries.len(), 1);

        // A root-based query: subtree replicas can never answer those
        // (§3.1.1) — referred to the master.
        let miss = SearchRequest::from_root(Filter::parse("(serialNumber=040001)").unwrap());
        let res = client.search("ldap://sub", &miss).unwrap();
        assert_eq!(res.stats.round_trips, 2);
        assert_eq!(res.entries.len(), 1);

        // The node saw both queries; only one was a hit.
        let node = net.server("ldap://sub").unwrap();
        assert_eq!(node.url(), "ldap://sub");
    }

    #[test]
    fn subtree_node_syncs_in_place() {
        let mut dit = DitStore::new();
        dit.add_suffix("o=xyz".parse().unwrap());
        dit.add(Entry::new("o=xyz".parse().unwrap()).with("objectclass", "organization"))
            .unwrap();
        dit.add(Entry::new("c=us,o=xyz".parse().unwrap()).with("objectclass", "country"))
            .unwrap();
        let mut sub = SubtreeReplica::new();
        sub.replicate_context(&dit, NamingContext::new("c=us,o=xyz".parse().unwrap()));
        let node = SubtreeReplicaNode::new("ldap://sub", sub, "ldap://master");

        dit.add(
            Entry::new("cn=n,c=us,o=xyz".parse().unwrap())
                .with("objectclass", "person")
                .with("serialNumber", "049999"),
        )
        .unwrap();
        let t = node.sync_from(&dit);
        assert_eq!(t.full_entries, 1);

        let q = SearchRequest::new(
            "c=us,o=xyz".parse().unwrap(),
            Scope::Subtree,
            Filter::parse("(serialNumber=049999)").unwrap(),
        );
        match node.handle_search(&q) {
            ServerOutcome::Results { entries, .. } => assert_eq!(entries.len(), 1),
            other => panic!("expected local answer, got {other:?}"),
        }
        assert_eq!(node.stats().hits, 1);
    }
}
