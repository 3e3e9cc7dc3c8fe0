//! Seeded inputs: a small PRNG and the generator of tiny two-thread
//! litmus programs the `service` workload submits.
//!
//! A program is a pure function of `(seed, id)`. Its name carries both,
//! and the name is part of the oracle's content key, so distinct ids
//! are distinct keys by construction.

/// SplitMix64: small, fast, and good enough to pick inputs.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one numbered stream of `seed` (streams do not
    /// overlap in practice).
    #[must_use]
    pub fn stream(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        // Multiply-shift; the bias is far below anything measured here.
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            v.swap(i, j);
        }
    }
}

/// One instruction slot of a generated thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    /// Store the slot's own value to a location.
    Store { loc: usize },
    /// Load a location into the slot's own register.
    Load { loc: usize },
}

const LOCS: [&str; 2] = ["x", "y"];
/// Address registers of each location.
const ADDR_REG: [u8; 2] = [1, 2];
/// Value register (stores) and destination register (loads) of each
/// slot.
const SLOT_REG: [(u8, u8); 2] = [(7, 5), (8, 6)];

/// The value thread `tid` stores from slot `slot` (distinct across the
/// program, so finals tell the writes apart).
fn store_value(tid: usize, slot: usize) -> u64 {
    (2 * tid + slot + 1) as u64
}

/// A tiny two-thread litmus program: each thread has one instruction,
/// and one of the two threads has a second with probability 1/3; each
/// instruction is a word store or load on `x` or `y`, and the condition
/// asks for one value of every loaded register (or of one stored
/// location when nothing loads). Explored in under a millisecond, so no
/// program comes near the default state budget.
#[must_use]
pub fn tiny_program(seed: u64, id: u64) -> String {
    let mut rng = Rng::stream(seed, id);
    let longer = if rng.chance(1, 3) { rng.below(2) } else { 2 };
    let threads: Vec<Vec<Op>> = (0..2)
        .map(|tid| {
            let n = if tid == longer { 2 } else { 1 };
            (0..n)
                .map(|_| {
                    let loc = rng.below(2) as usize;
                    if rng.chance(1, 2) {
                        Op::Store { loc }
                    } else {
                        Op::Load { loc }
                    }
                })
                .collect()
        })
        .collect();

    let mut src = format!("POWER T{seed:x}-{id}\n{{\n");
    for (tid, ops) in threads.iter().enumerate() {
        src.push_str(&format!("{tid}:r1=x; {tid}:r2=y;"));
        for (slot, _) in ops.iter().enumerate() {
            src.push_str(&format!(
                " {tid}:r{}={};",
                SLOT_REG[slot].0,
                store_value(tid, slot)
            ));
        }
        src.push('\n');
    }
    src.push_str("x=0; y=0;\n}\n P0 | P1 ;\n");
    let rows = threads.iter().map(Vec::len).max().unwrap_or(0);
    for (slot, (value_reg, dest_reg)) in SLOT_REG.iter().enumerate().take(rows) {
        let cells: Vec<String> = threads
            .iter()
            .map(|ops| match ops.get(slot) {
                Some(Op::Store { loc }) => format!("stw r{value_reg},0(r{})", ADDR_REG[*loc]),
                Some(Op::Load { loc }) => format!("lwz r{dest_reg},0(r{})", ADDR_REG[*loc]),
                None => String::new(),
            })
            .collect();
        src.push_str(&format!(" {} ;\n", cells.join(" | ")));
    }

    // A value some execution could produce for a location: its initial
    // 0 or one of the values stored to it.
    let candidates = |loc: usize, rng: &mut Rng| -> u64 {
        let mut vals = vec![0];
        for (tid, ops) in threads.iter().enumerate() {
            for (slot, op) in ops.iter().enumerate() {
                if *op == (Op::Store { loc }) {
                    vals.push(store_value(tid, slot));
                }
            }
        }
        vals[rng.below(vals.len() as u64) as usize]
    };
    let mut atoms = Vec::new();
    for (tid, ops) in threads.iter().enumerate() {
        for (slot, op) in ops.iter().enumerate() {
            if let Op::Load { loc } = op {
                let v = candidates(*loc, &mut rng);
                atoms.push(format!("{tid}:r{}={v}", SLOT_REG[slot].1));
            }
        }
    }
    if atoms.is_empty() {
        let loc = rng.below(2) as usize;
        let v = candidates(loc, &mut rng);
        atoms.push(format!("{}={v}", LOCS[loc]));
    }
    src.push_str(&format!("exists ({})\n", atoms.join(" /\\ ")));
    src
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_deterministic_and_in_range() {
        let mut a = Rng::stream(7, 3);
        let mut b = Rng::stream(7, 3);
        for _ in 0..100 {
            let x = a.below(10);
            assert_eq!(x, b.below(10));
            assert!(x < 10);
        }
        assert_ne!(Rng::stream(7, 3).next_u64(), Rng::stream(7, 4).next_u64());
    }

    #[test]
    fn programs_parse_and_depend_on_seed_and_id() {
        for id in 0..200 {
            let src = tiny_program(11, id);
            let t = ppc_litmus::parse(&src).unwrap_or_else(|e| panic!("{e}\n{src}"));
            assert_eq!(t.threads.len(), 2);
            assert_eq!(t.name, format!("Tb-{id}"));
            assert_eq!(src, tiny_program(11, id));
        }
        assert_ne!(tiny_program(1, 0), tiny_program(2, 0));
    }

    #[test]
    fn programs_explore_conclusively_and_quickly() {
        let cfg = ppc_litmus::HarnessConfig::default();
        let mut states = 0;
        for id in 0..50 {
            let job = ppc_litmus::Job::from_source(
                &tiny_program(5, id),
                ppc_litmus::Expectation::Allowed,
                "test",
            )
            .unwrap();
            let r = ppc_litmus::run_job(&job, &cfg);
            assert!(r.conclusive() && !r.truncated);
            states += r.states;
        }
        assert!(states < 50 * 500, "{states} states for 50 programs");
    }

    #[test]
    fn shuffle_permutes() {
        let mut v: Vec<u32> = (0..50).collect();
        Rng::stream(1, 0).shuffle(&mut v);
        let mut s = v.clone();
        s.sort_unstable();
        assert_eq!(s, (0..50).collect::<Vec<_>>());
        assert_ne!(v, s);
    }
}
