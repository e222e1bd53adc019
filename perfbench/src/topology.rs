//! Starting and stopping the system under test in-process: one
//! `mg_server` service behind its TCP front end, or an `mg_router` router
//! in front of loopback shards.

use crate::client::{round_trip, Conn, Ticket};
use crate::gen::{Body, Class, Req};
use mg_router::{LocalCluster, Router, RouterConfig, RouterTcpServer};
use mg_server::{Service, ServiceConfig, TcpServer};
use std::io;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub enum Topo {
    /// One service with `threads` workers.
    Single { threads: usize },
    /// A router over `shards` shards of one worker each.
    Routed { shards: usize },
}

pub struct Running {
    pub addr: SocketAddr,
    inner: Inner,
}

enum Inner {
    Single(TcpServer),
    Routed {
        cluster: LocalCluster,
        router: Arc<Router>,
        server: RouterTcpServer,
    },
}

impl Running {
    fn start(topo: Topo) -> io::Result<Running> {
        match topo {
            Topo::Single { threads } => {
                let service = Service::start(ServiceConfig {
                    threads,
                    ..ServiceConfig::default()
                });
                let server = TcpServer::bind(service, "127.0.0.1:0")?;
                Ok(Running {
                    addr: server.local_addr,
                    inner: Inner::Single(server),
                })
            }
            Topo::Routed { shards } => {
                let cluster = LocalCluster::spawn(shards, |_| ServiceConfig {
                    threads: 1,
                    ..ServiceConfig::default()
                });
                let router = Arc::new(cluster.router(RouterConfig::default()));
                let server = RouterTcpServer::bind(router.clone(), "127.0.0.1:0")?;
                Ok(Running {
                    addr: server.local_addr,
                    inner: Inner::Routed {
                        cluster,
                        router,
                        server,
                    },
                })
            }
        }
    }

    /// Requests the router moved off their primary shard so far (0 when
    /// there is no router).
    pub fn failovers(&self) -> u64 {
        match &self.inner {
            Inner::Single(_) => 0,
            Inner::Routed { router, .. } => router.failovers(),
        }
    }

    /// Drains and joins every thread the system started. Call after the
    /// client connections are closed.
    pub fn stop(self) {
        match self.inner {
            Inner::Single(server) => server.shutdown_and_join(),
            Inner::Routed {
                cluster,
                router,
                server,
            } => {
                router.initiate_shutdown();
                server.join();
                drop(router);
                cluster.shutdown();
            }
        }
    }
}

/// Starts the system and times it up to the first warm-up response: a
/// collection request, so the lazily generated collection is included.
pub fn setup(topo: Topo, warm_up: &Req) -> io::Result<(Running, f64)> {
    debug_assert!(matches!(warm_up.body, Body::Collection { .. }));
    debug_assert_eq!(warm_up.class, Class::Main);
    let t0 = Instant::now();
    let running = Running::start(topo)?;
    let mut conn = Conn::connect(running.addr)?;
    let ticket = Ticket {
        stream: usize::MAX,
        index: 0,
        id: 1,
        trace: None,
    };
    let exchange = round_trip(&mut conn, warm_up, ticket, || ())?;
    let secs = t0.elapsed().as_secs_f64();
    if !exchange
        .response
        .windows(13)
        .any(|w| w == b"\"status\":\"ok\"")
    {
        let text = String::from_utf8_lossy(&exchange.response).into_owned();
        running.stop();
        return Err(io::Error::other(format!("warm-up failed: {text}")));
    }
    Ok((running, secs))
}
