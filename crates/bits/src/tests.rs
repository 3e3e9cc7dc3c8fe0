//! Unit and property tests for lifted bitvectors.

use crate::{Bit, Bv, Prng, Tribool};

#[test]
fn bit_logic_tables() {
    use Bit::{One, Undef, Zero};
    assert_eq!(Zero.and(Undef), Zero);
    assert_eq!(Undef.and(Zero), Zero);
    assert_eq!(One.and(Undef), Undef);
    assert_eq!(One.or(Undef), One);
    assert_eq!(Undef.or(One), One);
    assert_eq!(Zero.or(Undef), Undef);
    assert_eq!(One.xor(Undef), Undef);
    assert_eq!(Undef.not(), Undef);
    assert_eq!(One.not(), Zero);
    assert!(Undef.compatible(One));
    assert!(One.compatible(One));
    assert!(!One.compatible(Zero));
}

#[test]
fn msb0_indexing() {
    let v = Bv::from_u64(0x8000_0001, 32);
    assert_eq!(v.bit(0), Bit::One);
    assert_eq!(v.bit(1), Bit::Zero);
    assert_eq!(v.bit(31), Bit::One);
}

#[test]
fn round_trip_u64() {
    for &x in &[0u64, 1, 0xdead_beef, u64::MAX, 1 << 63] {
        assert_eq!(Bv::from_u64(x, 64).to_u64(), Some(x));
    }
}

#[test]
fn round_trip_i64() {
    for &x in &[0i64, -1, i64::MIN, i64::MAX, -42] {
        assert_eq!(Bv::from_i64(x, 64).to_i64(), Some(x));
    }
    assert_eq!(Bv::from_i64(-1, 4).to_i64(), Some(-1));
    assert_eq!(Bv::from_i64(7, 4).to_i64(), Some(7));
    assert_eq!(Bv::from_i64(-8, 4).to_i64(), Some(-8));
}

#[test]
fn bytes_round_trip() {
    let bytes = [0xde, 0xad, 0xbe, 0xef];
    let v = Bv::from_bytes(&bytes);
    assert_eq!(v.len(), 32);
    assert_eq!(v.to_bytes().unwrap(), bytes);
}

#[test]
fn undef_blocks_concrete_conversion() {
    let v = Bv::undef(8);
    assert_eq!(v.to_u64(), None);
    assert_eq!(v.to_bytes(), None);
    assert!(v.has_undef());
    assert!(v.all_undef());
    let w = v.with_bit(0, Bit::One);
    assert!(w.has_undef());
    assert!(!w.all_undef());
}

#[test]
fn slice_and_with_slice() {
    let v = Bv::from_u64(0b1100_1010, 8);
    assert_eq!(v.slice(0, 4).to_u64(), Some(0b1100));
    assert_eq!(v.slice(4, 4).to_u64(), Some(0b1010));
    let w = v.with_slice(4, &Bv::from_u64(0b0101, 4));
    assert_eq!(w.to_u64(), Some(0b1100_0101));
}

#[test]
fn concat_orders_msb_first() {
    let hi = Bv::from_u64(0xA, 4);
    let lo = Bv::from_u64(0x5, 4);
    assert_eq!(hi.concat(&lo).to_u64(), Some(0xA5));
}

#[test]
fn extension() {
    let v = Bv::from_u64(0b1010, 4);
    assert_eq!(v.extz(8).to_u64(), Some(0b0000_1010));
    assert_eq!(v.exts(8).to_u64(), Some(0b1111_1010));
    let w = Bv::from_u64(0b0010, 4);
    assert_eq!(w.exts(8).to_u64(), Some(0b0000_0010));
    // Truncation keeps low bits.
    assert_eq!(Bv::from_u64(0x1234, 16).extz(8).to_u64(), Some(0x34));
    assert_eq!(Bv::from_u64(0x1234, 16).exts(8).to_u64(), Some(0x34));
}

#[test]
fn add_sub_neg() {
    let a = Bv::from_u64(200, 8);
    let b = Bv::from_u64(100, 8);
    assert_eq!(a.add(&b).to_u64(), Some(44)); // wraps mod 256
    assert_eq!(a.sub(&b).to_u64(), Some(100));
    assert_eq!(b.sub(&a).to_i64(), Some(-100));
    assert_eq!(b.neg().to_i64(), Some(-100));
}

#[test]
fn carry_and_overflow() {
    // 0xFF + 1 carries out, no signed overflow (-1 + 1 = 0).
    let (s, c, o) = Bv::from_u64(0xFF, 8).add_with_carry(&Bv::from_u64(1, 8), Bit::Zero);
    assert_eq!(s.to_u64(), Some(0));
    assert_eq!(c, Bit::One);
    assert_eq!(o, Bit::Zero);
    // 0x7F + 1 overflows signed, no carry.
    let (s, c, o) = Bv::from_u64(0x7F, 8).add_with_carry(&Bv::from_u64(1, 8), Bit::Zero);
    assert_eq!(s.to_u64(), Some(0x80));
    assert_eq!(c, Bit::Zero);
    assert_eq!(o, Bit::One);
}

#[test]
fn undef_poisons_carry_chain_upward_only() {
    // LSB undef: the sum LSB and the next bit (reached by the undefined
    // carry) are undefined, but the carry chain dies where both operand
    // bits are zero, so higher bits stay defined.
    let mut a = Bv::from_u64(0, 8);
    a = a.with_bit(7, Bit::Undef);
    let s = a.add(&Bv::from_u64(1, 8));
    assert!(s.bit(7).is_undef());
    assert!(s.bit(6).is_undef());
    assert_eq!(s.slice(0, 6).to_u64(), Some(0));
    // MSB undef only: lower sum bits stay defined.
    let mut b = Bv::from_u64(0, 8);
    b = b.with_bit(0, Bit::Undef);
    let s = b.add(&Bv::from_u64(1, 8));
    assert_eq!(s.slice(1, 7).to_u64(), Some(1));
    assert!(s.bit(0).is_undef());
}

#[test]
fn mul_cases() {
    let a = Bv::from_u64(0xFFFF_FFFF, 32);
    let b = Bv::from_u64(2, 32);
    assert_eq!(a.mul_low(&b).to_u64(), Some(0xFFFF_FFFE));
    assert_eq!(a.mul_high(&b, false).to_u64(), Some(1));
    // signed: -1 * 2 = -2, high half all ones
    assert_eq!(a.mul_high(&b, true).to_i64(), Some(-1));
    assert!(a.mul_low(&Bv::undef(32)).has_undef());
}

#[test]
fn div_cases() {
    let a = Bv::from_u64(100, 32);
    let b = Bv::from_u64(7, 32);
    assert_eq!(a.div(&b, false).to_u64(), Some(14));
    assert_eq!(
        Bv::from_i64(-100, 32)
            .div(&Bv::from_i64(7, 32), true)
            .to_i64(),
        Some(-14)
    );
    // Division by zero and signed overflow are architecturally undefined.
    assert!(a.div(&Bv::zeros(32), false).all_undef());
    let min = Bv::from_i64(i64::MIN, 64);
    assert!(min.div(&Bv::from_i64(-1, 64), true).all_undef());
    let min32 = Bv::from_i64(i32::MIN as i64, 32);
    assert!(min32.div(&Bv::from_i64(-1, 32), true).all_undef());
}

#[test]
fn shifts_and_rotates() {
    let v = Bv::from_u64(0b1001, 4);
    assert_eq!(v.shl(1).to_u64(), Some(0b0010));
    assert_eq!(v.lshr(1).to_u64(), Some(0b0100));
    assert_eq!(v.ashr(1).to_u64(), Some(0b1100));
    assert_eq!(v.rotl(1).to_u64(), Some(0b0011));
    assert_eq!(v.rotl(4).to_u64(), Some(0b1001));
    assert_eq!(v.shl(4).to_u64(), Some(0));
    assert_eq!(v.lshr(17).to_u64(), Some(0));
    assert_eq!(v.ashr(17).to_u64(), Some(0b1111));
}

#[test]
fn comparisons() {
    let a = Bv::from_i64(-1, 8);
    let b = Bv::from_u64(1, 8);
    assert_eq!(a.lt_unsigned(&b), Tribool::False); // 0xFF > 1 unsigned
    assert_eq!(a.lt_signed(&b), Tribool::True); // -1 < 1 signed
    assert_eq!(a.eq_lifted(&a), Tribool::True);
    assert_eq!(a.eq_lifted(&b), Tribool::False);
    let u = Bv::undef(8);
    assert_eq!(a.lt_unsigned(&u), Tribool::Undef);
    assert_eq!(a.eq_lifted(&u), Tribool::Undef);
    // Defined disagreement dominates undef for equality.
    let mut half = Bv::from_u64(0xF0, 8);
    half = half.with_bit(7, Bit::Undef);
    assert_eq!(half.eq_lifted(&Bv::from_u64(0x00, 8)), Tribool::False);
}

#[test]
fn counting() {
    assert_eq!(Bv::from_u64(1, 32).count_leading_zeros(), Some(31));
    assert_eq!(Bv::zeros(32).count_leading_zeros(), Some(32));
    assert_eq!(Bv::undef(4).count_leading_zeros(), None);
    assert_eq!(Bv::from_u64(0b1011, 4).popcount(), Some(3));
    assert_eq!(Bv::undef(4).popcount(), None);
}

#[test]
fn byte_reverse() {
    let v = Bv::from_u64(0x1234_5678, 32);
    assert_eq!(v.byte_reverse().to_u64(), Some(0x7856_3412));
}

#[test]
fn display_formats() {
    assert_eq!(Bv::from_u64(0xAB, 8).to_string(), "0xab");
    assert_eq!(Bv::from_u64(0b101, 3).to_string(), "0b101");
    assert_eq!(Bv::undef(4).to_string(), "0buuuu");
}

#[test]
fn compatible_up_to_undef() {
    let concrete = Bv::from_u64(0x5A, 8);
    let mut masked = concrete.clone();
    masked = masked.with_bit(0, Bit::Undef).with_bit(5, Bit::Undef);
    assert!(concrete.compatible(&masked));
    assert!(masked.compatible(&concrete));
    assert!(!concrete.compatible(&Bv::from_u64(0x5B, 8)));
    assert!(!concrete.compatible(&Bv::from_u64(0x5A, 7).extz(7)));
}

// ---- randomised property tests (deterministic Prng, fixed seeds) ------

const PROP_ITERS: usize = 512;

#[test]
fn prop_add_sub_match_wrapping_u64() {
    let mut rng = Prng::seed_from_u64(0xb175_0001);
    for _ in 0..PROP_ITERS {
        let w = rng.gen_range(1..65usize);
        let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
        let (a, b) = (rng.gen::<u64>() & mask, rng.gen::<u64>() & mask);
        let s = Bv::from_u64(a, w).add(&Bv::from_u64(b, w));
        assert_eq!(s.to_u64(), Some(a.wrapping_add(b) & mask));
        let d = Bv::from_u64(a, w).sub(&Bv::from_u64(b, w));
        assert_eq!(d.to_u64(), Some(a.wrapping_sub(b) & mask));
    }
}

#[test]
#[allow(clippy::cast_possible_wrap, clippy::cast_sign_loss)]
fn prop_shift_matches_u64() {
    let mut rng = Prng::seed_from_u64(0xb175_0002);
    for _ in 0..PROP_ITERS {
        let a = rng.gen::<u64>();
        let sh = rng.gen_range(0..70usize);
        let v = Bv::from_u64(a, 64);
        assert_eq!(v.shl(sh).to_u64(), Some(if sh >= 64 { 0 } else { a << sh }));
        assert_eq!(
            v.lshr(sh).to_u64(),
            Some(if sh >= 64 { 0 } else { a >> sh })
        );
        let expect_ashr = if sh >= 64 {
            ((a as i64) >> 63) as u64
        } else {
            ((a as i64) >> sh) as u64
        };
        assert_eq!(v.ashr(sh).to_u64(), Some(expect_ashr));
    }
}

#[test]
#[allow(clippy::cast_possible_truncation)]
fn prop_rotl_matches_u64() {
    let mut rng = Prng::seed_from_u64(0xb175_0003);
    for _ in 0..PROP_ITERS {
        let a = rng.gen::<u64>();
        let sh = rng.gen_range(0..128usize);
        let v = Bv::from_u64(a, 64);
        assert_eq!(v.rotl(sh).to_u64(), Some(a.rotate_left((sh % 64) as u32)));
    }
}

#[test]
fn prop_logic_matches_u64() {
    let mut rng = Prng::seed_from_u64(0xb175_0004);
    for _ in 0..PROP_ITERS {
        let (a, b) = (rng.gen::<u64>(), rng.gen::<u64>());
        let (va, vb) = (Bv::from_u64(a, 64), Bv::from_u64(b, 64));
        assert_eq!(va.and(&vb).to_u64(), Some(a & b));
        assert_eq!(va.or(&vb).to_u64(), Some(a | b));
        assert_eq!(va.xor(&vb).to_u64(), Some(a ^ b));
        assert_eq!(va.not().to_u64(), Some(!a));
        assert_eq!(va.nand(&vb).to_u64(), Some(!(a & b)));
        assert_eq!(va.nor(&vb).to_u64(), Some(!(a | b)));
        assert_eq!(va.eqv(&vb).to_u64(), Some(!(a ^ b)));
        assert_eq!(va.andc(&vb).to_u64(), Some(a & !b));
        assert_eq!(va.orc(&vb).to_u64(), Some(a | !b));
    }
}

#[test]
#[allow(clippy::cast_sign_loss)]
fn prop_compare_matches_i64() {
    let mut rng = Prng::seed_from_u64(0xb175_0005);
    for _ in 0..PROP_ITERS {
        let (a, b) = (rng.gen::<i64>(), rng.gen::<i64>());
        let (va, vb) = (Bv::from_i64(a, 64), Bv::from_i64(b, 64));
        assert_eq!(va.lt_signed(&vb).to_bool(), Some(a < b));
        assert_eq!(va.lt_unsigned(&vb).to_bool(), Some((a as u64) < (b as u64)));
        assert_eq!(va.eq_lifted(&vb).to_bool(), Some(a == b));
    }
}

#[test]
#[allow(
    clippy::cast_possible_truncation,
    clippy::cast_possible_wrap,
    clippy::cast_sign_loss
)]
fn prop_mul_matches_u128() {
    let mut rng = Prng::seed_from_u64(0xb175_0006);
    for _ in 0..PROP_ITERS {
        let (a, b) = (rng.gen::<u64>(), rng.gen::<u64>());
        let (va, vb) = (Bv::from_u64(a, 64), Bv::from_u64(b, 64));
        let full = u128::from(a) * u128::from(b);
        assert_eq!(va.mul_low(&vb).to_u64(), Some(a.wrapping_mul(b)));
        assert_eq!(va.mul_high(&vb, false).to_u64(), Some((full >> 64) as u64));
        let sfull = i128::from(a as i64) * i128::from(b as i64);
        assert_eq!(va.mul_high(&vb, true).to_u64(), Some((sfull >> 64) as u64));
    }
}

#[test]
fn prop_exts_extz_round_trip() {
    let mut rng = Prng::seed_from_u64(0xb175_0007);
    for _ in 0..PROP_ITERS {
        let a = rng.gen::<u64>();
        let w = rng.gen_range(1..33usize);
        let mask = (1u64 << w) - 1;
        let v = Bv::from_u64(a & mask, w);
        assert_eq!(v.extz(64).to_u64(), Some(a & mask));
        assert_eq!(v.exts(64).to_i64(), v.to_i64());
        assert_eq!(v.extz(64).extz(w), v);
    }
}

#[test]
fn prop_slice_concat_identity() {
    let mut rng = Prng::seed_from_u64(0xb175_0008);
    for _ in 0..PROP_ITERS {
        let a = rng.gen::<u64>();
        let cut = rng.gen_range(1..63usize);
        let v = Bv::from_u64(a, 64);
        let hi = v.slice(0, cut);
        let lo = v.slice(cut, 64 - cut);
        assert_eq!(hi.concat(&lo), v);
    }
}

#[test]
fn prop_neg_is_sub_from_zero() {
    let mut rng = Prng::seed_from_u64(0xb175_0009);
    for _ in 0..PROP_ITERS {
        let a = rng.gen::<u64>();
        let w = rng.gen_range(1..65usize);
        let mask = if w == 64 { u64::MAX } else { (1u64 << w) - 1 };
        let v = Bv::from_u64(a & mask, w);
        assert_eq!(v.neg(), Bv::zeros(w).sub(&v));
    }
}

#[test]
fn prop_undef_is_contagious_for_add() {
    // An undef bit never yields a *wrong* defined answer: adding with
    // an undef operand bit leaves all bits at or above it undef.
    for pos in 0..8usize {
        let a = Bv::from_u64(0xFF, 8).with_bit(pos, Bit::Undef);
        let s = a.add(&Bv::from_u64(1, 8));
        for i in 0..=pos {
            assert!(s.bit(i).is_undef());
        }
    }
}

#[test]
fn prop_byte_reverse_involution() {
    let mut rng = Prng::seed_from_u64(0xb175_000a);
    for _ in 0..PROP_ITERS {
        let n = rng.gen_range(1..8usize);
        let bytes: Vec<u8> = (0..n).map(|_| rng.gen::<u8>()).collect();
        let v = Bv::from_bytes(&bytes);
        assert_eq!(v.byte_reverse().byte_reverse(), v);
    }
}

/// A random lifted vector of length `n`, with undef density ~1/4.
fn gen_lifted(rng: &mut Prng, n: usize) -> Vec<Bit> {
    (0..n)
        .map(|_| match rng.gen_range(0..4u8) {
            0 => Bit::Undef,
            1 | 2 => Bit::One,
            _ => Bit::Zero,
        })
        .collect()
}

/// Lengths on both sides of the small/multiword boundary and of the
/// multiword form's word boundaries.
const REPR_LENGTHS: [usize; 14] = [1, 7, 8, 32, 63, 64, 65, 127, 128, 129, 200, 511, 512, 513];

fn gen_repr_length(rng: &mut Prng) -> usize {
    REPR_LENGTHS[rng.gen_range(0..REPR_LENGTHS.len() as u32) as usize]
}

/// Differential check of the packed representations against the
/// per-bit reference semantics, across the small/multiword boundary
/// (lengths 63, 64, 65) and the multiword form's word boundaries: every
/// operation must give the same bit sequence whichever representation
/// it runs on.
#[test]
fn prop_packed_representation_matches_per_bit_reference() {
    let mut rng = Prng::seed_from_u64(0xb175_000b);
    for _ in 0..PROP_ITERS {
        let n = gen_repr_length(&mut rng);
        let abits = gen_lifted(&mut rng, n);
        let bbits = gen_lifted(&mut rng, n);
        let a = Bv::from_bits(abits.clone());
        let b = Bv::from_bits(bbits.clone());

        // Construction round-trips through the representation.
        assert_eq!(a.iter().collect::<Vec<_>>(), abits);
        assert_eq!(a.len(), n);
        for (i, &bit) in abits.iter().enumerate() {
            assert_eq!(a.bit(i), bit);
        }

        // Bitwise operations against the per-bit tables.
        let zip = |f: fn(Bit, Bit) -> Bit| -> Vec<Bit> {
            abits.iter().zip(&bbits).map(|(&x, &y)| f(x, y)).collect()
        };
        assert_eq!(a.and(&b).iter().collect::<Vec<_>>(), zip(Bit::and));
        assert_eq!(a.or(&b).iter().collect::<Vec<_>>(), zip(Bit::or));
        assert_eq!(a.xor(&b).iter().collect::<Vec<_>>(), zip(Bit::xor));
        assert_eq!(
            a.not().iter().collect::<Vec<_>>(),
            abits.iter().map(|&x| x.not()).collect::<Vec<_>>()
        );

        // Shifts/rotates against explicit sequence surgery.
        let amount = rng.gen_range(0..(n as u32 + 2)) as usize;
        if amount < n {
            let mut shl = abits[amount..].to_vec();
            shl.extend(std::iter::repeat_n(Bit::Zero, amount));
            assert_eq!(a.shl(amount).iter().collect::<Vec<_>>(), shl);
            let mut lshr = vec![Bit::Zero; amount];
            lshr.extend_from_slice(&abits[..n - amount]);
            assert_eq!(a.lshr(amount).iter().collect::<Vec<_>>(), lshr);
            let mut ashr = vec![abits[0]; amount];
            ashr.extend_from_slice(&abits[..n - amount]);
            assert_eq!(a.ashr(amount).iter().collect::<Vec<_>>(), ashr);
        }
        let rot = amount % n;
        let mut rotl = abits[rot..].to_vec();
        rotl.extend_from_slice(&abits[..rot]);
        assert_eq!(a.rotl(amount).iter().collect::<Vec<_>>(), rotl);

        // Slicing and splicing: a random range, and one that straddles
        // a 64-bit word boundary (MSB0 index `n - 64k`).
        let start = rng.gen_range(0..n as u32) as usize;
        let slen = rng.gen_range(0..(n - start) as u32 + 1) as usize;
        let mut ranges = vec![(start, slen)];
        if n > 64 {
            let edge = n - 64 * rng.gen_range(1..(n as u32 - 1) / 64 + 1) as usize;
            let below = rng.gen_range(1..edge.min(70) as u32 + 1) as usize;
            let above = rng.gen_range(1..(n - edge).min(70) as u32 + 1) as usize;
            ranges.push((edge - below, below + above));
        }
        for (start, slen) in ranges {
            assert_eq!(
                a.slice(start, slen).iter().collect::<Vec<_>>(),
                abits[start..start + slen].to_vec()
            );
            let mut spliced = abits.clone();
            spliced[start..start + slen].copy_from_slice(&bbits[start..start + slen]);
            assert_eq!(
                a.with_slice(start, &b.slice(start, slen))
                    .iter()
                    .collect::<Vec<_>>(),
                spliced
            );
        }

        // Concatenation, of equal and of unequal lengths (small‖wide,
        // wide‖small, wide‖wide).
        let mut cat = abits.clone();
        cat.extend_from_slice(&bbits);
        assert_eq!(a.concat(&b).iter().collect::<Vec<_>>(), cat);
        let m = gen_repr_length(&mut rng);
        let cbits = gen_lifted(&mut rng, m);
        let c = Bv::from_bits(cbits.clone());
        let mut ac = abits.clone();
        ac.extend_from_slice(&cbits);
        assert_eq!(a.concat(&c).iter().collect::<Vec<_>>(), ac);
        let mut ca = cbits.clone();
        ca.extend_from_slice(&abits);
        assert_eq!(c.concat(&a).iter().collect::<Vec<_>>(), ca);

        // Extension in both regimes (below, at, and above 64 bits).
        for target in [n / 2, n, n + 1, 64, 65, 130] {
            let extz = a.extz(target);
            let exts = a.exts(target);
            assert_eq!(extz.len(), target);
            assert_eq!(exts.len(), target);
            if target >= n {
                let mut ez = vec![Bit::Zero; target - n];
                ez.extend_from_slice(&abits);
                assert_eq!(extz.iter().collect::<Vec<_>>(), ez);
                let sign = abits.first().copied().unwrap_or(Bit::Zero);
                let mut es = vec![sign; target - n];
                es.extend_from_slice(&abits);
                assert_eq!(exts.iter().collect::<Vec<_>>(), es);
            } else {
                assert_eq!(
                    extz.iter().collect::<Vec<_>>(),
                    abits[n - target..].to_vec()
                );
            }
        }

        // Comparisons and counts agree with the reference definitions.
        // Two random vectors are almost never compatible at these
        // lengths, so also compare `a` with a copy that has some bits
        // made undef and maybe one bit flipped.
        let reference = |x: &[Bit], y: &[Bit]| x.iter().zip(y).all(|(&p, &q)| p.compatible(q));
        assert_eq!(a.compatible(&b), reference(&abits, &bbits));
        let mut near: Vec<Bit> = abits
            .iter()
            .map(|&x| {
                if rng.gen_range(0..4u8) == 0 {
                    Bit::Undef
                } else {
                    x
                }
            })
            .collect();
        if rng.gen_range(0..2u8) == 0 {
            let j = rng.gen_range(0..n as u32) as usize;
            near[j] = if near[j] == Bit::One {
                Bit::Zero
            } else {
                Bit::One
            };
        }
        let near_bv = Bv::from_bits(near.clone());
        assert_eq!(a.compatible(&near_bv), reference(&abits, &near));
        assert_eq!(near_bv.compatible(&a), reference(&near, &abits));
        if n != m {
            assert!(!a.compatible(&c), "different lengths are never compatible");
        }
        let undef_a = abits.iter().any(|b| b.is_undef());
        assert_eq!(a.has_undef(), undef_a);
        assert_eq!(
            a.popcount(),
            (!undef_a).then(|| abits.iter().filter(|b| **b == Bit::One).count())
        );

        // Ordering and equality must match the lexicographic per-bit
        // order the Vec<Bit> representation derived.
        assert_eq!(a.cmp(&b), abits.cmp(&bbits));
        assert_eq!(a == b, abits == bbits);
    }
}

/// Equal values hash equally whatever path constructed them, and
/// ordering is total and consistent across the length boundary.
#[test]
fn prop_hash_and_ord_consistency() {
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};
    let hash_of = |v: &Bv| {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    };
    let mut rng = Prng::seed_from_u64(0xb175_000c);
    for _ in 0..PROP_ITERS {
        let n = rng.gen_range(0..601u32) as usize;
        let bits = gen_lifted(&mut rng, n);
        // Two construction paths: explicit bits vs incremental collect.
        let a = Bv::from_bits(bits.clone());
        let b: Bv = bits.iter().copied().collect();
        assert_eq!(a, b);
        assert_eq!(hash_of(&a), hash_of(&b));
        assert_eq!(a.cmp(&b), std::cmp::Ordering::Equal);
        // A prefix always orders strictly before its extension.
        if n > 0 {
            let prefix = a.slice(0, n - 1);
            assert_eq!(prefix.cmp(&a), std::cmp::Ordering::Less);
            assert_eq!(a.cmp(&prefix), std::cmp::Ordering::Greater);
        }
    }
}

/// `Bv` stays three words whichever form it takes. The oracle holds
/// hundreds of thousands of byte-sized values at once: a 48-byte `Bv`
/// (the multiword form as a length plus two boxed planes) raised the
/// `isa-seq` benchmark's peak RSS from 93.8 to 112 MB (+19%).
#[test]
fn bv_is_three_words() {
    assert_eq!(std::mem::size_of::<Bv>(), 24);
}
