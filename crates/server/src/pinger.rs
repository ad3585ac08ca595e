//! Background health pinger for a multi-node router.
//!
//! A dead node should be skipped *before* a query pays its timeout. One
//! pinger thread walks every endpoint of every replica set on a fixed
//! interval, sending PING frames (`PROTOCOL.md` §3.3) over cached
//! connections with a short read timeout — a SIGSTOP'd node still
//! accepts TCP connects, so liveness means an answered PONG, not an
//! accepted SYN. Outcomes feed two levels of state:
//!
//! * **Endpoint beliefs** ([`ReplicaSet::set_up`](drtopk_core::ReplicaSet::set_up)): `down_after`
//!   consecutive ping failures mark an endpoint down (probes stop
//!   preferring it); one answered PONG marks it up again.
//! * **Router health slots**: all endpoints of a shard down →
//!   [`ShardRouter::cordon`](drtopk_core::ShardRouter::cordon) (queries
//!   skip the shard without paying a probe); a cordoned shard with a
//!   live endpoint again → [`ShardRouter::mark_up`](drtopk_core::ShardRouter::mark_up)
//!   — the automatic rejoin path after `drtopk recover` restarts a node.

use crate::client::Client;
use crate::remote::RemoteRouter;
use drtopk_core::ShardHealth;
use drtopk_obs::metrics;
use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Pinger tunables.
#[derive(Debug, Clone)]
pub struct PingerConfig {
    /// Sleep between full sweeps of every endpoint.
    pub interval: Duration,
    /// Read timeout on each PING — a node that accepts but does not
    /// answer within this window counts as a failure.
    pub timeout: Duration,
    /// Consecutive ping failures after which an endpoint is believed
    /// down. Minimum 1.
    pub down_after: u32,
}

impl Default for PingerConfig {
    fn default() -> Self {
        PingerConfig {
            interval: Duration::from_millis(200),
            timeout: Duration::from_millis(100),
            down_after: 2,
        }
    }
}

/// A running health pinger; stop it with [`HealthPinger::stop`] (also
/// invoked on drop).
#[derive(Debug)]
pub struct HealthPinger {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl HealthPinger {
    /// Spawns the pinger thread over every endpoint `router` routes to.
    pub fn start(router: Arc<RemoteRouter>, cfg: PingerConfig) -> Self {
        let cfg = PingerConfig {
            down_after: cfg.down_after.max(1),
            ..cfg
        };
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name("drtopk-pinger".to_string())
            .spawn(move || pinger_loop(&router, &cfg, &stop2))
            .expect("spawn pinger");
        HealthPinger {
            stop,
            thread: Some(thread),
        }
    }

    /// Stops the thread and joins it.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        self.stop.store(true, SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for HealthPinger {
    fn drop(&mut self) {
        self.halt();
    }
}

/// Per-endpoint pinger state: a cached connection and a failure streak.
struct EndpointState {
    client: Option<Client>,
    consecutive_failures: u32,
}

fn pinger_loop(router: &Arc<RemoteRouter>, cfg: &PingerConfig, stop: &AtomicBool) {
    let m = metrics();
    let mut state: Vec<Vec<EndpointState>> = (0..router.shards())
        .map(|s| {
            (0..router.shard(s).len())
                .map(|_| EndpointState {
                    client: None,
                    consecutive_failures: 0,
                })
                .collect()
        })
        .collect();
    while !stop.load(SeqCst) {
        for (s, slots) in state.iter_mut().enumerate() {
            let set = router.shard(s);
            for (i, slot) in slots.iter_mut().enumerate() {
                if stop.load(SeqCst) {
                    return;
                }
                m.endpoint_pings.add(1);
                if ping_once(set.replica(i).addr(), cfg.timeout, &mut slot.client) {
                    slot.consecutive_failures = 0;
                    set.set_up(i, true);
                } else {
                    m.endpoint_ping_failures.add(1);
                    slot.client = None; // reconnect next sweep
                    slot.consecutive_failures = slot.consecutive_failures.saturating_add(1);
                    if slot.consecutive_failures >= cfg.down_after {
                        set.set_up(i, false);
                    }
                }
            }
            let any_up = (0..set.len()).any(|i| set.is_up(i));
            let shard_down = router.health()[s] == ShardHealth::Down;
            if !any_up && !shard_down {
                // Every replica is gone: cordon so queries skip the
                // shard without paying its probe timeout.
                router.cordon(s);
            } else if any_up && shard_down {
                // Rejoin: a recovered endpoint answered PING while the
                // shard sat cordoned.
                router.mark_up(s);
            }
        }
        // Sleep in short slices so stop() returns promptly.
        let mut slept = Duration::ZERO;
        while slept < cfg.interval && !stop.load(SeqCst) {
            let slice = (cfg.interval - slept).min(Duration::from_millis(25));
            std::thread::sleep(slice);
            slept += slice;
        }
    }
}

/// One PING against `addr`, reusing `cached` when possible. Returns
/// whether a PONG came back inside the timeout.
fn ping_once(addr: &str, timeout: Duration, cached: &mut Option<Client>) -> bool {
    if cached.is_none() {
        // Fail fast here: the pinger's sweep interval *is* the retry
        // loop, so burning a backoff schedule per endpoint would only
        // delay the rest of the sweep. The timeout guards the hello too:
        // a SIGSTOP'd node accepts the connect but never echoes.
        match Client::connect_timeout(addr, timeout) {
            Ok(c) => *cached = Some(c),
            Err(_) => return false,
        }
    }
    match cached.as_mut() {
        Some(c) => c.ping().is_ok(),
        None => false,
    }
}
