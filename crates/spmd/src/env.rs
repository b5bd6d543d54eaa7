//! Loop-variable bindings carried by recorded `Exec`/`CondExec` events.
//!
//! Every executed assignment records the enclosing loops' bindings, so a
//! trace holds one [`Env`] per statement instance (over half a million for
//! TOMCATV at n = 128). Loop nests in the kernels are at most four deep
//! (APPSP), so an `Env` keeps up to [`INLINE`] bindings in place and only
//! spills deeper nests to the heap: recording, decoding and dropping a
//! trace then allocate nothing per event.

use hpf_ir::VarId;
use std::fmt;

/// Bindings stored without a heap allocation.
pub const INLINE: usize = 4;

/// Loop-variable bindings, outermost loop first. Compares and prints
/// (`Debug`) exactly like the `Vec<(VarId, i64)>` of its bindings.
#[derive(Clone)]
pub struct Env(Repr);

#[derive(Clone)]
enum Repr {
    Inline {
        len: u8,
        vars: [VarId; INLINE],
        vals: [i64; INLINE],
    },
    Spill(Vec<(VarId, i64)>),
}

impl Env {
    pub fn new() -> Env {
        Env(Repr::Inline {
            len: 0,
            vars: [VarId(0); INLINE],
            vals: [0; INLINE],
        })
    }

    /// Bind one more (inner) loop variable.
    pub fn push(&mut self, var: VarId, val: i64) {
        match &mut self.0 {
            Repr::Inline { len, vars, vals } if (*len as usize) < INLINE => {
                vars[*len as usize] = var;
                vals[*len as usize] = val;
                *len += 1;
            }
            Repr::Inline { .. } => {
                let mut spill: Vec<(VarId, i64)> = self.iter().collect();
                spill.push((var, val));
                self.0 = Repr::Spill(spill);
            }
            Repr::Spill(spill) => spill.push((var, val)),
        }
    }

    pub fn len(&self) -> usize {
        match &self.0 {
            Repr::Inline { len, .. } => *len as usize,
            Repr::Spill(spill) => spill.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The bindings, outermost first.
    pub fn iter(&self) -> impl Iterator<Item = (VarId, i64)> + '_ {
        let (vars, vals, spill): (&[VarId], &[i64], &[(VarId, i64)]) = match &self.0 {
            Repr::Inline { len, vars, vals } => {
                (&vars[..*len as usize], &vals[..*len as usize], &[])
            }
            Repr::Spill(spill) => (&[], &[], spill),
        };
        vars.iter()
            .copied()
            .zip(vals.iter().copied())
            .chain(spill.iter().copied())
    }

    /// The value bound to `var` (its first binding), if any.
    pub fn get(&self, var: VarId) -> Option<i64> {
        self.iter().find(|&(v, _)| v == var).map(|(_, x)| x)
    }
}

impl Default for Env {
    fn default() -> Env {
        Env::new()
    }
}

impl FromIterator<(VarId, i64)> for Env {
    fn from_iter<I: IntoIterator<Item = (VarId, i64)>>(iter: I) -> Env {
        let mut env = Env::new();
        for (v, x) in iter {
            env.push(v, x);
        }
        env
    }
}

impl From<&[(VarId, i64)]> for Env {
    fn from(bindings: &[(VarId, i64)]) -> Env {
        if bindings.len() > INLINE {
            return Env(Repr::Spill(bindings.to_vec()));
        }
        let mut vars = [VarId(0); INLINE];
        let mut vals = [0; INLINE];
        for (k, &(v, x)) in bindings.iter().enumerate() {
            vars[k] = v;
            vals[k] = x;
        }
        Env(Repr::Inline {
            len: bindings.len() as u8,
            vars,
            vals,
        })
    }
}

impl<const N: usize> From<[(VarId, i64); N]> for Env {
    fn from(bindings: [(VarId, i64); N]) -> Env {
        bindings.into_iter().collect()
    }
}

impl PartialEq for Env {
    fn eq(&self, other: &Env) -> bool {
        self.len() == other.len() && self.iter().eq(other.iter())
    }
}

impl fmt::Debug for Env {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bindings(n: usize) -> Vec<(VarId, i64)> {
        (0..n).map(|k| (VarId(k as u32 * 3), k as i64 - 2)).collect()
    }

    #[test]
    fn prints_and_compares_like_the_vec_at_every_depth() {
        for n in 0..=INLINE + 3 {
            let want = bindings(n);
            let env = Env::from(&want[..]);
            assert_eq!(env.len(), n);
            assert_eq!(format!("{:?}", env), format!("{:?}", want));
            assert_eq!(format!("{:#?}", env), format!("{:#?}", want));
            assert_eq!(env.iter().collect::<Vec<_>>(), want);
            assert_eq!(env, want.iter().copied().collect::<Env>());
            if n > 0 {
                assert_ne!(env, Env::from(&want[..n - 1]));
                assert_eq!(env.get(want[n - 1].0), Some(want[n - 1].1));
            }
        }
        assert_eq!(Env::new().get(VarId(0)), None);
    }

    #[test]
    fn an_event_is_at_most_64_bytes() {
        assert!(std::mem::size_of::<crate::Event>() <= 64);
    }
}
