//! Deterministic fault injection for the `drtopk` workspace.
//!
//! Crash safety claims are worthless untested, and the failures that
//! matter — a torn write-ahead-log tail, a bit flip in a snapshot, an I/O
//! error on the nth write, a worker thread panicking mid-batch — never
//! happen on a healthy CI box. This crate plants *failpoints* at the
//! workspace's storage and execution boundaries so a seeded chaos suite
//! can trigger exactly those failures, deterministically, and assert the
//! recovery invariants.
//!
//! Two call shapes cover every site:
//!
//! * [`hit`] — a pure control-flow site (file create, rename, fsync,
//!   worker dispatch). Returns `Err(Injected)` or panics when armed.
//! * [`mangle`] — a data site: the caller hands over the bytes it is about
//!   to write (or has just read) and an armed action may truncate them
//!   (torn write / short read) or flip a bit (silent corruption). A fired
//!   `mangle` also returns `Err(Injected)` so write paths can model the
//!   crash that tore the data: the bytes hit the disk mangled *and* the
//!   operation reports failure, exactly like a process death mid-write.
//!
//! Arming is explicit and counted: [`arm`] installs an action that fires
//! on the `nth` (0-based) subsequent visit to the site and then disarms
//! itself, so a test can corrupt "the 3rd WAL append" and nothing else.
//! All state is process-global; chaos tests serialize on a lock.
//!
//! # Feature gating
//!
//! Mirrors `drtopk-obs`: with the `enabled` feature off (the default),
//! [`hit`] and [`mangle`] are empty `#[inline]` bodies returning `Ok(())`
//! and the registry does not exist — the instrumented code compiles to
//! exactly the uninstrumented code. [`COMPILED`] reports which build this
//! is, and CI proves the feature-off path builds.
#![warn(missing_docs)]

use std::fmt;

/// The error returned by a fired failpoint. Callers convert it into their
/// own error type (storage maps it to an I/O-style format error).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Injected {
    /// The site that fired.
    pub site: &'static str,
}

impl fmt::Display for Injected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "injected fault at failpoint {:?}", self.site)
    }
}

impl std::error::Error for Injected {}

/// What an armed failpoint does when it fires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FailAction {
    /// Return [`Injected`] from the site (an I/O error, a refused rename).
    Error,
    /// Panic with a recognizable message (a poisoned worker).
    Panic,
    /// Truncate the mangled buffer to this many bytes (torn write or
    /// short read), then return [`Injected`]. At a [`hit`] site this
    /// degrades to plain [`FailAction::Error`].
    Truncate(usize),
    /// XOR the byte at `offset % len` with `mask` (silent bit rot), then
    /// return [`Injected`]. At a [`hit`] site this degrades to
    /// [`FailAction::Error`].
    BitFlip {
        /// Byte position, taken modulo the buffer length.
        offset: usize,
        /// Non-zero XOR mask.
        mask: u8,
    },
    /// Stall for this many milliseconds, then *succeed* (return `Ok`,
    /// leave data untouched). Models a slow disk or a scheduling hiccup
    /// rather than a hard fault: the caller proceeds, late — which is how
    /// chaos tests drive a per-shard probe past its carved deadline.
    Sleep(u64),
}

/// Sites usable per shard of a sharded deployment: `shard_site(s)` names
/// the probe boundary of shard `s` (`"shard::probe::<s>"`), so a chaos
/// test can fail, panic, or stall exactly one shard while its peers stay
/// healthy. Names are interned (leaked once per distinct shard id) so
/// they satisfy the registry's `&'static str` contract.
pub fn shard_site(shard: usize) -> &'static str {
    intern("shard::probe", shard)
}

/// Sites the shard router visits before each step of a lent shard's
/// cursor in its merge: `shard_step_site(s)` names shard `s`'s
/// (`"shard::step::<s>"`), so a chaos test can fail one shard mid-merge.
/// Without the `enabled` feature every shard shares one constant name and
/// nothing is interned or locked.
pub fn shard_step_site(shard: usize) -> &'static str {
    if COMPILED {
        intern("shard::step", shard)
    } else {
        "shard::step"
    }
}

/// `"<prefix>::<shard>"`, leaked once per distinct pair.
fn intern(prefix: &'static str, shard: usize) -> &'static str {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    type Sites = Mutex<HashMap<(&'static str, usize), &'static str>>;
    static SITES: OnceLock<Sites> = OnceLock::new();
    let sites = SITES.get_or_init(|| Mutex::new(HashMap::new()));
    let mut map = sites.lock().unwrap_or_else(|e| e.into_inner());
    map.entry((prefix, shard))
        .or_insert_with(|| Box::leak(format!("{prefix}::{shard}").into_boxed_str()))
}

#[cfg(feature = "enabled")]
mod active {
    use super::{FailAction, Injected};
    use std::collections::HashMap;
    use std::sync::Mutex;

    struct Armed {
        action: FailAction,
        /// Fires when the site's visit counter reaches this value.
        nth: u64,
    }

    struct Registry {
        armed: HashMap<&'static str, Armed>,
        visits: HashMap<&'static str, u64>,
    }

    static REGISTRY: Mutex<Option<Registry>> = Mutex::new(None);

    fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
        let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
        let reg = guard.get_or_insert_with(|| Registry {
            armed: HashMap::new(),
            visits: HashMap::new(),
        });
        f(reg)
    }

    /// Arms `site` to fire `action` on its `nth` (0-based) visit from now,
    /// then disarm. Re-arming a site replaces the previous action and
    /// resets its visit counter.
    pub fn arm(site: &'static str, nth: u64, action: FailAction) {
        with_registry(|reg| {
            reg.visits.insert(site, 0);
            reg.armed.insert(site, Armed { action, nth });
        });
    }

    /// Disarms every site and clears all visit counters.
    pub fn reset() {
        with_registry(|reg| {
            reg.armed.clear();
            reg.visits.clear();
        });
    }

    /// Visits counted at `site` since it was last armed (or since reset).
    pub fn visits(site: &'static str) -> u64 {
        with_registry(|reg| reg.visits.get(site).copied().unwrap_or(0))
    }

    fn fire(site: &'static str) -> Option<FailAction> {
        with_registry(|reg| {
            let count = reg.visits.entry(site).or_insert(0);
            let current = *count;
            *count += 1;
            match reg.armed.get(site) {
                Some(a) if a.nth == current => {
                    let action = a.action.clone();
                    reg.armed.remove(site);
                    Some(action)
                }
                _ => None,
            }
        })
    }

    /// Control-flow site: counts a visit; an armed action returns an error
    /// or panics. Data actions degrade to [`FailAction::Error`];
    /// [`FailAction::Sleep`] stalls and then succeeds.
    #[inline]
    pub fn hit(site: &'static str) -> Result<(), Injected> {
        match fire(site) {
            None => Ok(()),
            Some(FailAction::Panic) => panic!("failpoint panic at {site:?}"),
            Some(FailAction::Sleep(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                Ok(())
            }
            Some(_) => Err(Injected { site }),
        }
    }

    /// Data site: counts a visit; an armed action may mutate `data`
    /// (truncate / bit flip) and always returns `Err` when fired, so the
    /// caller can model the crash that produced the mangled bytes.
    #[inline]
    pub fn mangle(site: &'static str, data: &mut Vec<u8>) -> Result<(), Injected> {
        match fire(site) {
            None => Ok(()),
            Some(FailAction::Panic) => panic!("failpoint panic at {site:?}"),
            Some(FailAction::Error) => Err(Injected { site }),
            Some(FailAction::Truncate(len)) => {
                data.truncate(len);
                Err(Injected { site })
            }
            Some(FailAction::BitFlip { offset, mask }) => {
                if !data.is_empty() {
                    let pos = offset % data.len();
                    data[pos] ^= mask;
                }
                Err(Injected { site })
            }
            Some(FailAction::Sleep(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(ms));
                Ok(())
            }
        }
    }
}

#[cfg(feature = "enabled")]
pub use active::{arm, hit, mangle, reset, visits};

#[cfg(not(feature = "enabled"))]
mod noop {
    use super::{FailAction, Injected};

    /// No-op (failpoints compiled out): arming does nothing.
    #[inline]
    pub fn arm(_site: &'static str, _nth: u64, _action: FailAction) {}

    /// No-op (failpoints compiled out).
    #[inline]
    pub fn reset() {}

    /// Always 0 (failpoints compiled out).
    #[inline]
    pub fn visits(_site: &'static str) -> u64 {
        0
    }

    /// Always `Ok` (failpoints compiled out).
    #[inline]
    pub fn hit(_site: &'static str) -> Result<(), Injected> {
        Ok(())
    }

    /// Always `Ok`, never touches `data` (failpoints compiled out).
    #[inline]
    pub fn mangle(_site: &'static str, _data: &mut Vec<u8>) -> Result<(), Injected> {
        Ok(())
    }
}

#[cfg(not(feature = "enabled"))]
pub use noop::{arm, hit, mangle, reset, visits};

/// Whether injection support was compiled in (the `enabled` feature).
pub const COMPILED: bool = cfg!(feature = "enabled");

#[cfg(all(test, feature = "enabled"))]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The registry is process-global; these tests serialize on it.
    static LOCK: Mutex<()> = Mutex::new(());

    #[test]
    fn fires_on_nth_visit_then_disarms() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        arm("t::nth", 2, FailAction::Error);
        assert!(hit("t::nth").is_ok());
        assert!(hit("t::nth").is_ok());
        assert_eq!(hit("t::nth"), Err(Injected { site: "t::nth" }));
        assert!(hit("t::nth").is_ok(), "one-shot: disarmed after firing");
        assert_eq!(visits("t::nth"), 4);
        reset();
    }

    #[test]
    fn mangle_truncates_and_flips() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        let mut data = vec![0u8; 8];
        arm("t::trunc", 0, FailAction::Truncate(3));
        assert!(mangle("t::trunc", &mut data).is_err());
        assert_eq!(data.len(), 3);

        let mut data = vec![0u8; 8];
        arm(
            "t::flip",
            0,
            FailAction::BitFlip {
                offset: 10,
                mask: 0x40,
            },
        );
        assert!(mangle("t::flip", &mut data).is_err());
        assert_eq!(data[10 % 8], 0x40, "offset wraps modulo len");

        let mut empty: Vec<u8> = Vec::new();
        arm("t::flip2", 0, FailAction::BitFlip { offset: 0, mask: 1 });
        assert!(
            mangle("t::flip2", &mut empty).is_err(),
            "empty buffer: no panic"
        );
        reset();
    }

    #[test]
    fn panic_action_panics() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        arm("t::panic", 0, FailAction::Panic);
        let r = std::panic::catch_unwind(|| hit("t::panic"));
        assert!(r.is_err());
        reset();
    }

    #[test]
    fn sleep_action_stalls_then_succeeds() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        arm("t::sleep", 0, FailAction::Sleep(30));
        let t0 = std::time::Instant::now();
        assert!(hit("t::sleep").is_ok(), "a stall is not a failure");
        assert!(t0.elapsed() >= std::time::Duration::from_millis(30));
        assert!(hit("t::sleep").is_ok(), "one-shot: disarmed after firing");

        let mut data = vec![7u8; 4];
        arm("t::sleep2", 0, FailAction::Sleep(1));
        assert!(mangle("t::sleep2", &mut data).is_ok());
        assert_eq!(data, vec![7u8; 4], "sleep leaves data untouched");
        reset();
    }

    #[test]
    fn shard_sites_are_stable_and_distinct() {
        let a = shard_site(3);
        let b = shard_site(3);
        let c = shard_site(4);
        assert_eq!(a, "shard::probe::3");
        assert!(std::ptr::eq(a, b), "interned: same allocation");
        assert_eq!(c, "shard::probe::4");
        let step = shard_step_site(3);
        assert_eq!(step, "shard::step::3");
        assert!(std::ptr::eq(step, shard_step_site(3)));
        reset();
    }

    #[test]
    fn unarmed_sites_are_silent() {
        let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        let mut data = vec![1, 2, 3];
        assert!(hit("t::silent").is_ok());
        assert!(mangle("t::silent", &mut data).is_ok());
        assert_eq!(data, vec![1, 2, 3]);
        reset();
    }
}
