//! The reserved collective tag namespace.
//!
//! Early versions of the runtime sent collective traffic under ad-hoc
//! constants (`0xA11B_0000`, `0xB0AD_CA57`, `u64::MAX - round`) that
//! *shared the application tag space*: an app message whose tag happened
//! to collide mis-matched into a collective and corrupted both. This
//! module reserves the top tag bit for the runtime — user tags must keep
//! [`COLLECTIVE_BIT`] clear (every point-to-point entry asserts it). The
//! scheduler completes collectives centrally, so today only the faulty
//! collectives' scheduled messages carry `ctag` tags, which key their
//! seeded fault draws.
//!
//! Layout of a collective tag (bit 63 set):
//!
//! ```text
//! 63      62..48        47..0
//! [1] [namespace id] [sequence]
//! ```
//!
//! The namespace id separates collectives of different kinds; the
//! sequence separates the rounds of one collective, so every scheduled
//! message draws its own faults.

/// The reserved bit: set on every runtime-internal tag, clear on every
/// application tag.
pub const COLLECTIVE_BIT: u64 = 1 << 63;

/// Namespace ids of the faulty collectives' scheduled messages. Their
/// tags key the seeded drop/delay draws, so the values are frozen.
pub(crate) const NS_FAULTY_BARRIER: u64 = 0x08;
pub(crate) const NS_FAULTY_ALLREDUCE: u64 = 0x09;

/// Build a collective tag from a namespace id and a per-collective
/// sequence number (round, step, …).
pub(crate) fn ctag(ns: u64, seq: u64) -> u64 {
    debug_assert!(ns > 0 && ns < (1 << 15), "namespace id fits bits 62..48");
    debug_assert!(seq < (1 << 48), "sequence fits bits 47..0");
    COLLECTIVE_BIT | (ns << 48) | seq
}

/// Whether `tag` is legal for application traffic.
pub fn is_user_tag(tag: u64) -> bool {
    tag & COLLECTIVE_BIT == 0
}

/// Panic unless `tag` is legal for application traffic. Called for every
/// point-to-point op the scheduler performs and by `Comm::irecv`.
pub(crate) fn assert_user_tag(tag: u64) {
    assert!(
        is_user_tag(tag),
        "tag {tag:#x} sets the reserved collective bit (1 << 63); \
         application tags must stay below it"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn collective_tags_set_the_reserved_bit() {
        for ns in [NS_FAULTY_BARRIER, NS_FAULTY_ALLREDUCE] {
            for seq in [0, 1, (1 << 48) - 1] {
                let t = ctag(ns, seq);
                assert!(!is_user_tag(t));
                assert_eq!(t & 0xFFFF_FFFF_FFFF, seq);
            }
        }
        assert_ne!(ctag(NS_FAULTY_BARRIER, 7), ctag(NS_FAULTY_ALLREDUCE, 7));
    }

    #[test]
    fn legacy_constants_are_user_tags_now() {
        // The old ad-hoc collective constants all sit in user space; an
        // app using one of them can no longer collide with a collective.
        for old in [0xA11B_0000u64, 0xB0AD_CA57, 0xCAF_0000, 0xFA17_BA00] {
            assert!(is_user_tag(old));
        }
    }
}
