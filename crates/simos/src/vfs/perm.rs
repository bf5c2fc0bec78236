//! File modes, permission classes, and the Linux access-check algorithm.
//!
//! [`check_access`] implements the POSIX.1e/Linux decision order: owner class
//! is *selected*, not merely preferred (a denying owner class never falls
//! through to group/other); named-ACL entries are filtered through the mask;
//! the group class grants if *any* matching entry grants; root bypasses
//! everything except execute-without-any-x-bit on regular files.

use crate::cred::Credentials;
use crate::ids::{Gid, Uid};
use std::fmt;

use super::acl::PosixAcl;

/// An rwx permission triple for one class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Perm(u8);

impl Perm {
    /// No permissions.
    pub const NONE: Perm = Perm(0);
    /// Read.
    pub const R: Perm = Perm(4);
    /// Write.
    pub const W: Perm = Perm(2);
    /// Execute / search.
    pub const X: Perm = Perm(1);
    /// Read + write.
    pub const RW: Perm = Perm(6);
    /// Read + execute.
    // analyze:allow(dead-pub): part of the permission-bit set
    pub const RX: Perm = Perm(5);
    /// Write + execute.
    pub const WX: Perm = Perm(3);
    /// All three.
    // analyze:allow(dead-pub): part of the permission-bit set
    pub const RWX: Perm = Perm(7);

    /// From the low three bits of an octal digit.
    #[inline]
    pub const fn from_bits(bits: u8) -> Perm {
        Perm(bits & 0o7)
    }

    /// Raw bits (0..=7).
    #[inline]
    pub const fn bits(self) -> u8 {
        self.0
    }

    /// Does this grant everything in `want`?
    #[inline]
    pub const fn contains(self, want: Perm) -> bool {
        self.0 & want.0 == want.0
    }

    /// Intersection (used for ACL masking).
    #[inline]
    pub const fn intersect(self, other: Perm) -> Perm {
        Perm(self.0 & other.0)
    }

    /// Union.
    #[inline]
    pub const fn union(self, other: Perm) -> Perm {
        Perm(self.0 | other.0)
    }
}

impl fmt::Display for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}{}{}",
            if self.contains(Perm::R) { 'r' } else { '-' },
            if self.contains(Perm::W) { 'w' } else { '-' },
            if self.contains(Perm::X) { 'x' } else { '-' },
        )
    }
}

/// A full file mode: permission bits plus setuid/setgid/sticky.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Mode(u16);

impl Mode {
    /// setuid bit.
    // analyze:allow(dead-pub): part of the mode-bit set
    pub const SETUID: u16 = 0o4000;
    /// setgid bit (on directories: new files inherit the directory's group).
    pub const SETGID: u16 = 0o2000;
    /// Sticky bit (on directories: restricted deletion).
    pub const STICKY: u16 = 0o1000;

    /// Construct from an octal literal, e.g. `Mode::new(0o1777)`.
    #[inline]
    pub const fn new(bits: u16) -> Mode {
        Mode(bits & 0o7777)
    }

    /// Raw bits.
    #[inline]
    pub const fn bits(self) -> u16 {
        self.0
    }

    /// Owner-class permissions.
    #[inline]
    pub const fn owner(self) -> Perm {
        Perm::from_bits(((self.0 >> 6) & 0o7) as u8)
    }

    /// Group-class permissions. When a POSIX ACL is present these bits hold
    /// the ACL *mask*, exactly as on Linux.
    #[inline]
    pub const fn group(self) -> Perm {
        Perm::from_bits(((self.0 >> 3) & 0o7) as u8)
    }

    /// Other-class ("world") permissions.
    #[inline]
    pub const fn other(self) -> Perm {
        Perm::from_bits((self.0 & 0o7) as u8)
    }

    /// True if the sticky bit is set.
    #[inline]
    pub const fn is_sticky(self) -> bool {
        self.0 & Self::STICKY != 0
    }

    /// True if the setgid bit is set.
    #[inline]
    pub const fn is_setgid(self) -> bool {
        self.0 & Self::SETGID != 0
    }

    /// True if any execute bit is set in any class.
    #[inline]
    pub const fn any_exec(self) -> bool {
        self.0 & 0o111 != 0
    }

    /// True if any world (other-class) bit is set.
    #[inline]
    pub const fn any_world(self) -> bool {
        self.0 & 0o007 != 0
    }

    /// Clear every bit present in `mask` (umask/smask application).
    #[inline]
    pub const fn clear(self, mask: Mode) -> Mode {
        Mode(self.0 & !mask.0)
    }

    /// Replace the group-class bits (used when chmod adjusts the ACL mask).
    #[inline]
    pub const fn with_group(self, p: Perm) -> Mode {
        Mode((self.0 & !0o070) | ((p.bits() as u16) << 3))
    }
}

impl fmt::Display for Mode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:04o}", self.0)
    }
}

/// Minimal metadata needed for an access decision.
#[derive(Debug, Clone, PartialEq)]
pub struct PermMeta<'a> {
    /// Owning uid.
    pub uid: Uid,
    /// Owning gid.
    pub gid: Gid,
    /// Mode bits.
    pub mode: Mode,
    /// Optional POSIX ACL.
    pub acl: Option<&'a PosixAcl>,
    /// True for directories (affects root's execute handling).
    pub is_dir: bool,
}

/// The Linux permission check. Returns true when `cred` may perform `want`.
pub fn check_access(cred: &Credentials, meta: &PermMeta<'_>, want: Perm) -> bool {
    // Root: full read/write; execute requires at least one x bit somewhere
    // unless the object is a directory (CAP_DAC_OVERRIDE semantics).
    if cred.is_root() {
        if want.contains(Perm::X) && !meta.is_dir {
            let acl_has_x = meta.acl.map(|a| a.any_exec_entry()).unwrap_or(false);
            return meta.mode.any_exec() || acl_has_x;
        }
        return true;
    }

    // Owner class is selected exclusively — no fallthrough.
    if cred.uid == meta.uid {
        return meta.mode.owner().contains(want);
    }

    // The ACL mask lives in the group bits of the mode when an ACL exists.
    if let Some(acl) = meta.acl {
        let mask = meta.mode.group();
        // Named user entry: selected exclusively, masked.
        if let Some(p) = acl.user_perm(cred.uid) {
            return p.intersect(mask).contains(want);
        }
        // Group class: owning-group entry plus named group entries; any
        // matching entry that grants suffices.
        let mut matched = false;
        if cred.is_member(meta.gid) {
            matched = true;
            if acl.group_obj.intersect(mask).contains(want) {
                return true;
            }
        }
        for (g, p) in acl.group_entries() {
            if cred.is_member(g) {
                matched = true;
                if p.intersect(mask).contains(want) {
                    return true;
                }
            }
        }
        if matched {
            return false;
        }
        return meta.mode.other().contains(want);
    }

    // No ACL: plain mode-bit classes.
    if cred.is_member(meta.gid) {
        return meta.mode.group().contains(want);
    }
    meta.mode.other().contains(want)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn meta(uid: u32, gid: u32, mode: u16) -> PermMeta<'static> {
        PermMeta {
            uid: Uid(uid),
            gid: Gid(gid),
            mode: Mode::new(mode),
            acl: None,
            is_dir: false,
        }
    }

    #[test]
    fn perm_display_and_ops() {
        assert_eq!(Perm::RWX.to_string(), "rwx");
        assert_eq!(Perm::R.union(Perm::X).to_string(), "r-x");
        assert!(Perm::RW.contains(Perm::R));
        assert!(!Perm::R.contains(Perm::W));
        assert_eq!(Perm::RWX.intersect(Perm::RX), Perm::RX);
    }

    #[test]
    fn mode_accessors() {
        let m = Mode::new(0o2754);
        assert_eq!(m.owner(), Perm::RWX);
        assert_eq!(m.group(), Perm::RX);
        assert_eq!(m.other(), Perm::R);
        assert!(m.is_setgid());
        assert!(!m.is_sticky());
        assert!(Mode::new(0o1777).is_sticky());
        assert_eq!(m.to_string(), "2754");
        assert_eq!(Mode::new(0o777).clear(Mode::new(0o007)).bits(), 0o770);
        assert_eq!(Mode::new(0o700).with_group(Perm::RX).bits(), 0o750);
    }

    #[test]
    fn owner_class_is_exclusive() {
        // Owner with 0o077: owner gets nothing even though group/other allow.
        let m = meta(10, 10, 0o077);
        let owner = Credentials::new(Uid(10), Gid(10));
        assert!(!check_access(&owner, &m, Perm::R));
        // Non-owner in group gets the group bits.
        let member = Credentials::with_groups(Uid(11), Gid(11), [Gid(10)]);
        assert!(check_access(&member, &m, Perm::RWX));
    }

    #[test]
    fn group_then_other_fallback() {
        let m = meta(10, 20, 0o640);
        let member = Credentials::with_groups(Uid(11), Gid(11), [Gid(20)]);
        assert!(check_access(&member, &m, Perm::R));
        assert!(!check_access(&member, &m, Perm::W));
        let stranger = Credentials::new(Uid(12), Gid(12));
        assert!(!check_access(&stranger, &m, Perm::R));
    }

    #[test]
    fn world_bits_grant_strangers() {
        let m = meta(10, 10, 0o604);
        let stranger = Credentials::new(Uid(12), Gid(12));
        assert!(check_access(&stranger, &m, Perm::R));
        assert!(!check_access(&stranger, &m, Perm::W));
    }

    #[test]
    fn root_rw_always_x_needs_a_bit() {
        let root = Credentials::root();
        let no_x = meta(10, 10, 0o600);
        assert!(check_access(&root, &no_x, Perm::RW));
        assert!(!check_access(&root, &no_x, Perm::X));
        let with_x = meta(10, 10, 0o100);
        assert!(check_access(&root, &with_x, Perm::X));
        // Directories: root always searches.
        let mut dir = meta(10, 10, 0o000);
        dir.is_dir = true;
        assert!(check_access(&root, &dir, Perm::X));
    }

    #[test]
    fn acl_named_user_is_masked_and_exclusive() {
        let acl = PosixAcl::new(Perm::NONE).with_user(Uid(50), Perm::RWX);
        // Mask (group bits) is r-- : named user's rwx is cut to r--.
        let m = PermMeta {
            uid: Uid(10),
            gid: Gid(10),
            mode: Mode::new(0o640),
            acl: Some(&acl),
            is_dir: false,
        };
        let named = Credentials::new(Uid(50), Gid(50));
        assert!(check_access(&named, &m, Perm::R));
        assert!(!check_access(&named, &m, Perm::W));
        // Named-user selection is exclusive: other bits don't rescue it.
        let m_other_open = PermMeta {
            mode: Mode::new(0o606),
            ..m.clone()
        };
        assert!(!check_access(&named, &m_other_open, Perm::W));
    }

    #[test]
    fn acl_group_class_any_entry_grants() {
        let acl = PosixAcl::new(Perm::NONE)
            .with_group(Gid(70), Perm::R)
            .with_group(Gid(71), Perm::RW);
        let m = PermMeta {
            uid: Uid(10),
            gid: Gid(10),
            mode: Mode::new(0o670), // mask rwx
            acl: Some(&acl),
            is_dir: false,
        };
        // Member of both: the RW entry grants W even though the R entry doesn't.
        let both = Credentials::with_groups(Uid(60), Gid(60), [Gid(70), Gid(71)]);
        assert!(check_access(&both, &m, Perm::W));
        // Member of only the R entry: W denied, and no fallthrough to other.
        let m_world = PermMeta {
            mode: Mode::new(0o672),
            ..m.clone()
        };
        let only_r = Credentials::with_groups(Uid(61), Gid(61), [Gid(70)]);
        assert!(!check_access(&only_r, &m_world, Perm::W));
        // Total stranger falls through to other bits.
        let stranger = Credentials::new(Uid(62), Gid(62));
        assert!(check_access(&stranger, &m_world, Perm::W));
    }

    #[test]
    fn acl_owning_group_entry_respects_mask() {
        let acl = PosixAcl::new(Perm::RWX); // group_obj rwx
        let m = PermMeta {
            uid: Uid(10),
            gid: Gid(20),
            mode: Mode::new(0o750), // mask r-x
            acl: Some(&acl),
            is_dir: false,
        };
        let member = Credentials::with_groups(Uid(11), Gid(11), [Gid(20)]);
        assert!(check_access(&member, &m, Perm::RX));
        assert!(!check_access(&member, &m, Perm::W));
    }
}
