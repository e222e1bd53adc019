//! The in-process multi-shard harness: spawn K real `mg-server` shard
//! engines on loopback TCP and a router over them, all inside one test
//! process.
//!
//! This is what the topology-determinism tests drive (the acceptance
//! contract: one session's response bytes are identical for 1 shard and
//! K shards at any thread count), and a convenient way to demo the
//! router without deploying anything.
//!
//! [`LocalCluster::spawn_killable`] additionally fronts each shard with a
//! [`ShardProxy`] — a transparent byte pump the harness can sever
//! abruptly, giving failover tests the observable behaviour of a
//! `SIGKILL`ed shard process (connections torn down, new dials refused)
//! without leaving a real engine un-joinable. A killed proxy can be
//! revived on the same port to exercise prober re-admission.

use crate::config::{ShardSpec, Topology};
use crate::router::{Router, RouterConfig};
use mg_server::{Service, ServiceConfig, TcpServer};
use std::io::Read;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// A transparent TCP proxy in front of one shard, built to die on
/// command: [`ShardProxy::kill`] severs every proxied connection and
/// stops accepting, so a router dialing the proxy's port afterwards gets
/// `connection refused` — exactly what a killed shard process looks like.
pub struct ShardProxy {
    /// The address the router should dial (the proxy's listener).
    pub local_addr: SocketAddr,
    killed: Arc<AtomicBool>,
    conns: Arc<Mutex<Vec<TcpStream>>>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl ShardProxy {
    /// Fronts `target` on an ephemeral loopback port.
    pub fn spawn(target: &str) -> std::io::Result<ShardProxy> {
        ShardProxy::spawn_on("127.0.0.1:0", target)
    }

    /// Fronts `target` on a specific address — how a killed proxy is
    /// revived on the port the topology already names.
    pub fn spawn_on(addr: &str, target: &str) -> std::io::Result<ShardProxy> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let killed = Arc::new(AtomicBool::new(false));
        let conns: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
        let accept = std::thread::Builder::new()
            .name("shard-proxy-accept".into())
            .spawn({
                let killed = killed.clone();
                let conns = conns.clone();
                let target = target.to_string();
                move || accept_loop(&listener, &target, &killed, &conns)
            })?;
        Ok(ShardProxy {
            local_addr,
            killed,
            conns,
            accept: Some(accept),
        })
    }

    /// Kills the proxy: the listener closes (subsequent dials are
    /// refused) and every proxied connection is shut down both ways, so
    /// peers on both sides see an abrupt EOF mid-whatever-they-were-doing.
    pub fn kill(mut self) {
        self.killed.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            // The accept loop exits within one poll tick, dropping the
            // listener and releasing the port before we return.
            let _ = accept.join();
        }
        let conns = self.conns.lock().unwrap_or_else(PoisonError::into_inner);
        for conn in conns.iter() {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }
}

impl Drop for ShardProxy {
    fn drop(&mut self) {
        self.killed.store(true, Ordering::SeqCst);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    target: &str,
    killed: &Arc<AtomicBool>,
    conns: &Arc<Mutex<Vec<TcpStream>>>,
) {
    loop {
        if killed.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((client, _)) => {
                // Refuse-by-dropping if the backing shard is unreachable.
                let Ok(server) = TcpStream::connect(target) else {
                    continue;
                };
                let _ = client.set_nodelay(true);
                let _ = server.set_nodelay(true);
                let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) else {
                    continue;
                };
                {
                    let mut tracked = conns.lock().unwrap_or_else(PoisonError::into_inner);
                    if let (Ok(c3), Ok(s3)) = (client.try_clone(), server.try_clone()) {
                        tracked.push(c3);
                        tracked.push(s3);
                    }
                }
                spawn_pump(client, s2);
                spawn_pump(server, c2);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(_) => return,
        }
    }
}

/// One direction of a proxied connection: copy bytes until either side
/// closes, then tear both streams down so the other direction unblocks.
fn spawn_pump(mut from: TcpStream, mut to: TcpStream) {
    let _ = std::thread::Builder::new()
        .name("shard-proxy-pump".into())
        .spawn(move || {
            let mut buf = [0u8; 8192];
            loop {
                match from.read(&mut buf) {
                    Ok(0) | Err(_) => break,
                    Ok(n) => {
                        if std::io::Write::write_all(&mut to, &buf[..n]).is_err() {
                            break;
                        }
                    }
                }
            }
            let _ = from.shutdown(Shutdown::Both);
            let _ = to.shutdown(Shutdown::Both);
        });
}

/// One spawned loopback shard: the serving engine plus its TCP front
/// end, optionally behind a killable [`ShardProxy`].
pub struct LocalShard {
    /// The spec a router uses to reach this shard (the proxy's address
    /// when the shard is killable).
    pub spec: ShardSpec,
    service: Arc<Service>,
    server: Option<TcpServer>,
    /// The engine's direct address — what a revived proxy re-targets.
    server_addr: String,
    proxy: Option<ShardProxy>,
}

impl LocalShard {
    /// `true` once the shard's engine began draining (e.g. because a
    /// routed in-band `shutdown` reached it).
    pub fn is_shutting_down(&self) -> bool {
        self.service.is_shutting_down()
    }

    /// Abruptly kills the shard as the router sees it: severs every
    /// connection through the proxy and refuses new dials. Only valid on
    /// [`LocalCluster::spawn_killable`] shards (panics otherwise — a
    /// direct shard cannot be killed without orphaning its engine).
    pub fn kill(&mut self) {
        self.proxy
            .take()
            .expect("kill() needs a spawn_killable cluster (or the shard is already dead)")
            .kill();
    }

    /// Revives a killed shard on the same address the topology names, so
    /// the router's health prober can re-admit it.
    pub fn revive(&mut self) {
        assert!(self.proxy.is_none(), "shard is already alive");
        let proxy = ShardProxy::spawn_on(&self.spec.addr, &self.server_addr)
            .expect("reviving shard proxy on its old port");
        self.proxy = Some(proxy);
    }
}

/// K loopback shards, ready to put a router in front of.
pub struct LocalCluster {
    /// The spawned shards, in id order (`s0`, `s1`, …) unless the config
    /// hook assigned explicit `shard_id`s.
    pub shards: Vec<LocalShard>,
}

impl LocalCluster {
    /// Spawns `k` shards on ephemeral loopback ports. `make_config`
    /// builds each shard's [`ServiceConfig`] from its index — return the
    /// same configuration for every index (the default closure does) to
    /// uphold the topology-determinism contract; set
    /// [`ServiceConfig::shard_id`] per index to exercise shard
    /// diagnostics.
    pub fn spawn(k: usize, make_config: impl Fn(usize) -> ServiceConfig) -> LocalCluster {
        LocalCluster::spawn_inner(k, make_config, false)
    }

    /// Like [`LocalCluster::spawn`], but each shard sits behind a
    /// [`ShardProxy`] so tests can [`LocalShard::kill`] (and
    /// [`LocalShard::revive`]) it mid-stream.
    pub fn spawn_killable(k: usize, make_config: impl Fn(usize) -> ServiceConfig) -> LocalCluster {
        LocalCluster::spawn_inner(k, make_config, true)
    }

    fn spawn_inner(
        k: usize,
        make_config: impl Fn(usize) -> ServiceConfig,
        killable: bool,
    ) -> LocalCluster {
        let shards = (0..k)
            .map(|index| {
                let config = make_config(index);
                let id = config
                    .shard_id
                    .clone()
                    .unwrap_or_else(|| format!("s{index}"));
                let service = Service::start(config);
                let server = TcpServer::bind(service.clone(), "127.0.0.1:0")
                    .expect("binding loopback shard");
                let server_addr = server.local_addr.to_string();
                let (addr, proxy) = if killable {
                    let proxy = ShardProxy::spawn(&server_addr).expect("spawning shard proxy");
                    (proxy.local_addr.to_string(), Some(proxy))
                } else {
                    (server_addr.clone(), None)
                };
                LocalShard {
                    spec: ShardSpec { id, addr },
                    service,
                    server: Some(server),
                    server_addr,
                    proxy,
                }
            })
            .collect();
        LocalCluster { shards }
    }

    /// The topology covering every spawned shard.
    pub fn topology(&self) -> Topology {
        Topology::new(self.shards.iter().map(|s| s.spec.clone()).collect())
            .expect("spawned shards form a valid topology")
    }

    /// A router over the cluster.
    pub fn router(&self, config: RouterConfig) -> Router {
        Router::new(self.topology(), config).expect("cluster router config")
    }

    /// Tears the cluster down: kills any remaining proxies, initiates
    /// shutdown on every shard engine (idempotent — a routed in-band
    /// `shutdown` will already have done it) and joins every TCP front
    /// end.
    pub fn shutdown(mut self) {
        for shard in &mut self.shards {
            if let Some(proxy) = shard.proxy.take() {
                proxy.kill();
            }
        }
        for shard in &self.shards {
            shard.service.initiate_shutdown();
        }
        for shard in &mut self.shards {
            if let Some(server) = shard.server.take() {
                server.join();
            }
        }
    }
}
