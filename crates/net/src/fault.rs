//! Deterministic fault injection: a seeded, replayable schedule of wire
//! corruptions and worker kills.
//!
//! A [`FaultPlan`] is an explicit list of actions — corrupt or drop the
//! N-th data frame on a given link, or kill a rank after it has replayed N
//! events — with a canonical string form (`corrupt:0>1@2,kill:1@8`) so the
//! same plan can travel through the CLI, an environment variable, and the
//! job wire format. `seed:N` expands to a small deterministic schedule once
//! the process grid is known. A [`FaultInjector`] is the per-process
//! runtime arm of a plan: the socket send path consults it for link
//! injections and the replay loop consults it for the kill trigger.
//!
//! Every injected fault is terminal where it lands: the receiver of a
//! corrupt or dropped frame fails its replay, and a killed rank dies. The
//! supervised driver then respawns the whole cohort from its last
//! checkpoint under [`FaultPlan::after_failure`], which drops exactly the
//! faults the failed generation observed, so every planned action fires
//! once and the respawn loop terminates.

use crate::retry::splitmix64;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// Corrupt the payload of the `frame`-th data frame sent on the link
    /// `from -> to` (0-based, counting data frames only). The receiver
    /// sees a `bad-checksum` fault.
    Corrupt { from: usize, to: usize, frame: u64 },
    /// Swallow the `frame`-th data frame on `from -> to` while still
    /// consuming its sequence number. The receiver sees a `seq-gap`.
    Drop { from: usize, to: usize, frame: u64 },
    /// Abort rank `rank`'s worker process after it has replayed `events`
    /// events — an unrecoverable process death the supervisor must handle.
    Kill { rank: usize, events: u64 },
}

impl std::fmt::Display for FaultAction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultAction::Corrupt { from, to, frame } => {
                write!(f, "corrupt:{}>{}@{}", from, to, frame)
            }
            FaultAction::Drop { from, to, frame } => write!(f, "drop:{}>{}@{}", from, to, frame),
            FaultAction::Kill { rank, events } => write!(f, "kill:{}@{}", rank, events),
        }
    }
}

/// A deterministic schedule of faults, with an optional seed that expands
/// to concrete actions once the world size is known.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    pub actions: Vec<FaultAction>,
    /// Unexpanded `seed:N` shorthand; [`FaultPlan::resolve`] turns it into
    /// concrete actions for a given world size.
    pub seed: Option<u64>,
}

impl FaultPlan {
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty() && self.seed.is_none()
    }

    /// Parse the canonical comma-separated form. Accepted tokens:
    /// `corrupt:F>T@N`, `drop:F>T@N`, `kill:R@N`, `seed:S`. Whitespace
    /// around tokens is ignored; the empty string is the empty plan.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for tok in s.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (kind, rest) = tok
                .split_once(':')
                .ok_or_else(|| format!("fault action `{}` is missing `:`", tok))?;
            match kind {
                "seed" => {
                    let seed = rest
                        .parse::<u64>()
                        .map_err(|_| format!("bad seed in `{}`", tok))?;
                    if plan.seed.is_some() {
                        return Err("fault plan has more than one seed".into());
                    }
                    plan.seed = Some(seed);
                }
                "kill" => {
                    let (rank, events) = rest
                        .split_once('@')
                        .ok_or_else(|| format!("kill action `{}` is missing `@`", tok))?;
                    plan.actions.push(FaultAction::Kill {
                        rank: parse_num(rank, tok)? as usize,
                        events: parse_num(events, tok)?,
                    });
                }
                "corrupt" | "drop" => {
                    let (link, frame) = rest
                        .split_once('@')
                        .ok_or_else(|| format!("action `{}` is missing `@`", tok))?;
                    let (from, to) = link
                        .split_once('>')
                        .ok_or_else(|| format!("action `{}` is missing `>` in its link", tok))?;
                    let from = parse_num(from, tok)? as usize;
                    let to = parse_num(to, tok)? as usize;
                    let frame = parse_num(frame, tok)?;
                    if from == to {
                        return Err(format!("action `{}` targets a self-link", tok));
                    }
                    plan.actions.push(if kind == "corrupt" {
                        FaultAction::Corrupt { from, to, frame }
                    } else {
                        FaultAction::Drop { from, to, frame }
                    });
                }
                other => return Err(format!("unknown fault action kind `{}`", other)),
            }
        }
        Ok(plan)
    }

    /// Expand the `seed:` shorthand into concrete actions for a world of
    /// `nproc` ranks: one corrupted frame, one dropped frame, and one
    /// worker kill, all chosen by a SplitMix64 stream so the same seed
    /// always yields the same schedule.
    pub fn resolve(&self, nproc: usize) -> FaultPlan {
        let mut actions = self.actions.clone();
        if let Some(seed) = self.seed {
            if nproc >= 2 {
                let pick = |i: u64| splitmix64(seed.wrapping_add(i));
                let link = |i: u64| {
                    let from = (pick(i) % nproc as u64) as usize;
                    let to = (from + 1 + (pick(i + 1) % (nproc as u64 - 1)) as usize) % nproc;
                    (from, to)
                };
                let (cf, ct) = link(0);
                actions.push(FaultAction::Corrupt {
                    from: cf,
                    to: ct,
                    frame: pick(2) % 3,
                });
                let (df, dt) = link(3);
                actions.push(FaultAction::Drop {
                    from: df,
                    to: dt,
                    frame: pick(5) % 3,
                });
                actions.push(FaultAction::Kill {
                    rank: (pick(6) % nproc as u64) as usize,
                    events: 4 + pick(7) % 16,
                });
            }
        }
        FaultPlan {
            actions,
            seed: None,
        }
    }

    /// The kill scheduled for `rank`, if any (first match wins).
    pub fn kill_for(&self, rank: usize) -> Option<u64> {
        self.actions.iter().find_map(|a| match a {
            FaultAction::Kill { rank: r, events } if *r == rank => Some(*events),
            _ => None,
        })
    }

    /// The plan the next generation runs under after one failed. Only the
    /// faults the failed generation observed are consumed:
    ///
    /// * the armed kill (see [`FaultPlan::kill_for`]) of every rank in
    ///   `died`, the ranks whose process died without first reporting an
    ///   error;
    /// * for every link `(from, to)` in `faulted` — rank `to` reported a
    ///   fault about `from` that [`observes_injection`] — the injection on
    ///   `from -> to` with the lowest frame number: a link fails at its
    ///   first fault, so that is the one that fired.
    ///
    /// Every other action stays for the next generation.
    pub fn after_failure(&self, died: &[usize], faulted: &[(usize, usize)]) -> FaultPlan {
        let mut actions = self.actions.clone();
        for &rank in died {
            if let Some(i) = actions
                .iter()
                .position(|a| matches!(a, FaultAction::Kill { rank: r, .. } if *r == rank))
            {
                actions.remove(i);
            }
        }
        for &link in faulted {
            let fired = actions
                .iter()
                .enumerate()
                .filter_map(|(i, a)| match *a {
                    FaultAction::Corrupt { from, to, frame }
                    | FaultAction::Drop { from, to, frame }
                        if (from, to) == link =>
                    {
                        Some((frame, i))
                    }
                    _ => None,
                })
                .min();
            if let Some((_, i)) = fired {
                actions.remove(i);
            }
        }
        FaultPlan {
            actions,
            seed: None,
        }
    }
}

/// True if a receiver's fault event named `name` (see
/// [`crate::NetError::fault_name`]) is what an injection on its link
/// causes: `bad-checksum` for a corrupt frame, `seq-gap` for a dropped one
/// with a successor, and `deadline` for a dropped last frame. Anything
/// else is collateral damage of a peer that failed: a `closed` link, or a
/// `decode` fault from a connection the dead peer reset.
pub fn observes_injection(name: &str) -> bool {
    matches!(name, "bad-checksum" | "seq-gap" | "deadline")
}

fn parse_num(s: &str, tok: &str) -> Result<u64, String> {
    s.trim()
        .parse::<u64>()
        .map_err(|_| format!("bad number `{}` in fault action `{}`", s, tok))
}

impl std::fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        if let Some(seed) = self.seed {
            write!(f, "seed:{}", seed)?;
            first = false;
        }
        for a in &self.actions {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{}", a)?;
            first = false;
        }
        Ok(())
    }
}

/// What the send path should do with an outgoing data frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Injection {
    /// Send it untouched.
    Clean,
    /// Flip payload bits so the receiver's checksum fails.
    Corrupt,
    /// Swallow the frame but burn its sequence number.
    Drop,
}

struct LinkAction {
    to: usize,
    frame: u64,
    what: Injection,
    consumed: AtomicBool,
}

struct KillState {
    after_events: u64,
    seen: AtomicU64,
    fired: AtomicBool,
}

/// Per-process arm of a [`FaultPlan`], scoped to one rank. Shared via
/// `Arc`, so consumed-flags survive transport teardown and re-mesh: every
/// injection fires at most once per process lifetime.
#[derive(Clone)]
pub struct FaultInjector {
    inner: Arc<InjectorState>,
}

struct InjectorState {
    rank: usize,
    links: Vec<LinkAction>,
    kill: Option<KillState>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "FaultInjector(rank {}, {} link actions, kill: {})",
            self.inner.rank,
            self.inner.links.len(),
            self.inner.kill.is_some()
        )
    }
}

impl FaultInjector {
    /// Build the injector for `rank` from a resolved plan. Only actions
    /// relevant to this rank are armed.
    pub fn new(plan: &FaultPlan, rank: usize) -> FaultInjector {
        let links = plan
            .actions
            .iter()
            .filter_map(|a| match *a {
                FaultAction::Corrupt { from, to, frame } if from == rank => Some(LinkAction {
                    to,
                    frame,
                    what: Injection::Corrupt,
                    consumed: AtomicBool::new(false),
                }),
                FaultAction::Drop { from, to, frame } if from == rank => Some(LinkAction {
                    to,
                    frame,
                    what: Injection::Drop,
                    consumed: AtomicBool::new(false),
                }),
                _ => None,
            })
            .collect();
        let kill = plan.kill_for(rank).map(|after_events| KillState {
            after_events,
            seen: AtomicU64::new(0),
            fired: AtomicBool::new(false),
        });
        FaultInjector {
            inner: Arc::new(InjectorState { rank, links, kill }),
        }
    }

    pub fn rank(&self) -> usize {
        self.inner.rank
    }

    /// Consult the plan for the `ordinal`-th data frame to `to`.
    /// Each matching action fires exactly once.
    pub fn on_send(&self, to: usize, ordinal: u64) -> Injection {
        for a in &self.inner.links {
            if a.to == to
                && a.frame == ordinal
                && a.consumed
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                return a.what;
            }
        }
        Injection::Clean
    }

    /// Count one replayed event; returns `true` exactly once, when the
    /// scheduled kill threshold is crossed.
    pub fn note_event(&self) -> bool {
        if let Some(k) = &self.inner.kill {
            let n = k.seen.fetch_add(1, Ordering::SeqCst) + 1;
            if n >= k.after_events
                && k.fired
                    .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
            {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_format_roundtrip() {
        let s = "corrupt:0>1@2,drop:2>0@0,kill:1@8";
        let plan = FaultPlan::parse(s).unwrap();
        assert_eq!(plan.actions.len(), 3);
        assert_eq!(plan.to_string(), s);
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
    }

    #[test]
    fn empty_and_whitespace_plans() {
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("  ").unwrap().is_empty());
        assert!(FaultPlan::parse(" , ").unwrap().is_empty());
    }

    #[test]
    fn bad_plans_rejected() {
        for bad in [
            "explode:0>1@2",
            "corrupt:0>0@2",
            "corrupt:0-1@2",
            "kill:1",
            "corrupt:a>b@c",
            "seed:x",
            "seed:1,seed:2",
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "must reject `{}`", bad);
        }
    }

    #[test]
    fn seed_resolves_deterministically() {
        let plan = FaultPlan::parse("seed:42").unwrap();
        let a = plan.resolve(4);
        let b = plan.resolve(4);
        assert_eq!(a, b, "same seed + world size must resolve identically");
        assert!(a.seed.is_none());
        assert!(a.actions.iter().any(|x| matches!(x, FaultAction::Corrupt { .. })));
        assert!(a.actions.iter().any(|x| matches!(x, FaultAction::Drop { .. })));
        assert!(a.actions.iter().any(|x| matches!(x, FaultAction::Kill { .. })));
        for act in &a.actions {
            if let FaultAction::Corrupt { from, to, .. } | FaultAction::Drop { from, to, .. } = act
            {
                assert_ne!(from, to);
                assert!(*from < 4 && *to < 4);
            }
        }
        assert_ne!(plan.resolve(4), plan.resolve(3));
    }

    #[test]
    fn injector_fires_each_action_once() {
        let plan = FaultPlan::parse("corrupt:0>1@2,drop:0>2@0,kill:0@3").unwrap();
        let inj = FaultInjector::new(&plan, 0);
        assert_eq!(inj.on_send(1, 0), Injection::Clean);
        assert_eq!(inj.on_send(1, 2), Injection::Corrupt);
        assert_eq!(inj.on_send(1, 2), Injection::Clean, "fires once");
        assert_eq!(inj.on_send(2, 0), Injection::Drop);
        assert_eq!(inj.on_send(2, 0), Injection::Clean);
        assert!(!inj.note_event());
        assert!(!inj.note_event());
        assert!(inj.note_event(), "third event crosses kill threshold");
        assert!(!inj.note_event(), "kill fires once");
    }

    #[test]
    fn injector_scopes_to_rank() {
        let plan = FaultPlan::parse("corrupt:0>1@0,kill:1@1").unwrap();
        let other = FaultInjector::new(&plan, 2);
        assert_eq!(other.on_send(1, 0), Injection::Clean);
        assert!(!other.note_event());
    }

    #[test]
    fn failure_consumes_the_kill_of_each_dead_rank_only() {
        let plan = FaultPlan::parse("kill:1@8,kill:2@5,kill:1@30").unwrap();
        // Rank 2 reported an error before it went away: its kill stays.
        let next = plan.after_failure(&[1], &[]);
        assert_eq!(next.to_string(), "kill:2@5,kill:1@30");
        // The second kill of rank 1 is armed now, and fires next time.
        assert_eq!(next.kill_for(1), Some(30));
        assert_eq!(plan.after_failure(&[], &[]), plan);
    }

    #[test]
    fn failure_consumes_the_first_injection_on_each_faulted_link() {
        let plan = FaultPlan::parse("drop:0>1@5,corrupt:0>1@2,corrupt:2>3@0,kill:1@9").unwrap();
        // Rank 1 saw a fault about rank 0: the link failed at frame 2.
        let next = plan.after_failure(&[], &[(0, 1)]);
        assert_eq!(next.to_string(), "drop:0>1@5,corrupt:2>3@0,kill:1@9");
        // The reverse link carries no injection: nothing is consumed.
        assert_eq!(plan.after_failure(&[], &[(1, 0)]), plan);
        let next = next.after_failure(&[1], &[(0, 1), (2, 3)]);
        assert!(next.is_empty(), "{}", next);
    }

    #[test]
    fn closed_links_are_collateral() {
        for name in ["bad-checksum", "seq-gap", "deadline"] {
            assert!(observes_injection(name), "{}", name);
        }
        for name in ["closed", "decode", "io", "protocol", "handshake"] {
            assert!(!observes_injection(name), "{}", name);
        }
    }
}
