//! Topology configuration: the shard list and its validation.
//!
//! A topology is an ordered list of [`ShardSpec`]s. The order matters
//! only for display and tie-breaks; placement depends on the shard *ids*
//! (rendezvous hashing, see [`crate::placement`]), so appending a shard
//! never remaps traffic between the existing ones.

use std::fmt;

/// One downstream `mg-server` shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardSpec {
    /// Stable identity of the shard — the rendezvous hash input, so
    /// renaming a shard remaps its keys while re-addressing (moving the
    /// same id to a new host:port) does not.
    pub id: String,
    /// TCP address (`host:port`) the shard listens on.
    pub addr: String,
}

/// A validated shard list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    shards: Vec<ShardSpec>,
}

/// Typed topology configuration errors — all fatal at startup, never
/// discovered on the first request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// No shards configured (an empty `--shards` list).
    Empty,
    /// Two shards share an id; placement would be ambiguous.
    DuplicateId(String),
    /// Two shards share an address; one process would own 2× the keys
    /// silently.
    DuplicateAddr(String),
    /// A `--shards` element that does not parse as `[id=]host:port`.
    BadSpec(String),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Empty => write!(f, "topology has zero shards"),
            TopologyError::DuplicateId(id) => {
                write!(f, "topology lists shard id {id:?} more than once")
            }
            TopologyError::DuplicateAddr(addr) => {
                write!(f, "topology lists shard address {addr:?} more than once")
            }
            TopologyError::BadSpec(spec) => {
                write!(f, "bad shard spec {spec:?}; expected [id=]host:port")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

impl Topology {
    /// Validates and adopts a shard list.
    pub fn new(shards: Vec<ShardSpec>) -> Result<Topology, TopologyError> {
        if shards.is_empty() {
            return Err(TopologyError::Empty);
        }
        let mut ids = std::collections::HashSet::new();
        let mut addrs = std::collections::HashSet::new();
        for shard in &shards {
            if !ids.insert(shard.id.as_str()) {
                return Err(TopologyError::DuplicateId(shard.id.clone()));
            }
            if !addrs.insert(shard.addr.as_str()) {
                return Err(TopologyError::DuplicateAddr(shard.addr.clone()));
            }
        }
        Ok(Topology { shards })
    }

    /// Parses a `--shards` list: comma-separated `[id=]host:port` elements,
    /// where the host is non-empty and the port a `u16`. Ids default to
    /// `s0`, `s1`, … in list order.
    pub fn parse(list: &str) -> Result<Topology, TopologyError> {
        let mut shards = Vec::new();
        for (index, raw) in list
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty())
            .enumerate()
        {
            let bad = || TopologyError::BadSpec(raw.to_string());
            let (id, addr) = match raw.split_once('=') {
                Some((id, addr)) if !id.is_empty() && !id.contains(':') => (id.to_string(), addr),
                Some(_) => return Err(bad()),
                None => (format!("s{index}"), raw),
            };
            let valid = addr
                .rsplit_once(':')
                .is_some_and(|(host, port)| !host.is_empty() && port.parse::<u16>().is_ok());
            if !valid {
                return Err(bad());
            }
            shards.push(ShardSpec {
                id,
                addr: addr.to_string(),
            });
        }
        Topology::new(shards)
    }

    /// The shards, in configuration order.
    pub fn shards(&self) -> &[ShardSpec] {
        &self.shards
    }

    /// Number of shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Always `false`: an empty topology does not validate.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Index of the shard with `id`, if any.
    pub fn index_of(&self, id: &str) -> Option<usize> {
        self.shards.iter().position(|s| s.id == id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_plain_address_lists_with_default_ids() {
        let t = Topology::parse("127.0.0.1:7101, 127.0.0.1:7102").unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.shards()[0].id, "s0");
        assert_eq!(t.shards()[1].id, "s1");
        assert_eq!(t.shards()[1].addr, "127.0.0.1:7102");
    }

    #[test]
    fn parses_named_shards() {
        let t = Topology::parse("big=10.0.0.1:7077,small=10.0.0.2:7077").unwrap();
        assert_eq!(t.shards()[0].id, "big");
        assert_eq!(t.shards()[0].addr, "10.0.0.1:7077");
        assert_eq!(t.index_of("small"), Some(1));
        assert_eq!(t.index_of("absent"), None);
    }

    #[test]
    fn zero_shards_is_a_typed_error() {
        assert_eq!(Topology::parse(""), Err(TopologyError::Empty));
        assert_eq!(Topology::parse(" , ,"), Err(TopologyError::Empty));
        assert_eq!(Topology::new(vec![]), Err(TopologyError::Empty));
    }

    #[test]
    fn duplicate_ids_and_addresses_are_typed_errors() {
        assert_eq!(
            Topology::parse("a=h:1,a=h:2"),
            Err(TopologyError::DuplicateId("a".into()))
        );
        assert_eq!(
            Topology::parse("a=h:1,b=h:1"),
            Err(TopologyError::DuplicateAddr("h:1".into()))
        );
    }

    #[test]
    fn malformed_specs_are_typed_errors() {
        for bad in [
            "noport",
            "x=*2",
            "a=h:1*many",
            "a=h:1*-3",
            "h:1*2",
            "=h:1",
            "h:abc",
            "h:99999",
            ":7077",
        ] {
            assert!(
                matches!(Topology::parse(bad), Err(TopologyError::BadSpec(_))),
                "{bad:?} should be a BadSpec"
            );
        }
    }

    #[test]
    fn errors_render_their_context() {
        assert!(TopologyError::Empty.to_string().contains("zero shards"));
        assert!(TopologyError::DuplicateId("x".into())
            .to_string()
            .contains("\"x\""));
    }
}
