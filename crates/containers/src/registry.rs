//! Container sprawl on shared filesystems (paper Sec. IV-G):
//!
//! > "because of the ease with which they can be shared among shared-group
//! > users, containers tend to get proliferated across central file systems
//! > by sharing, cloning, and modifying them. After a few years, there are
//! > just a lot of old, unused containers littering the home directories."
//!
//! This registry tracks every image copy on the shared filesystem with its
//! last-used time, so the sprawl experiment can measure stale-container
//! counts and their accumulated vulnerabilities over simulated years.

use crate::image::Image;
use eus_simcore::SimTime;
use eus_simos::Uid;

/// One stored image copy.
#[derive(Debug, Clone)]
pub struct StoredImage {
    /// Whose directory it sits in.
    pub owner: Uid,
    /// Path on the shared filesystem.
    pub path: String,
    /// The image.
    pub image: Image,
    /// Last time any job referenced it.
    pub last_used: SimTime,
}

/// All image copies on the shared filesystem.
#[derive(Debug, Default)]
pub struct ContainerRegistry {
    stored: Vec<StoredImage>,
}

impl ContainerRegistry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A user drops (or clones) an image copy into their area.
    pub fn store(&mut self, owner: Uid, path: impl Into<String>, image: Image, now: SimTime) {
        self.stored.push(StoredImage {
            owner,
            path: path.into(),
            image,
            last_used: now,
        });
    }

    /// A user clones an existing copy into their own area (the proliferation
    /// mechanism). Returns false when the source path is unknown.
    pub fn clone_image(
        &mut self,
        src_path: &str,
        new_owner: Uid,
        new_path: impl Into<String>,
        now: SimTime,
    ) -> bool {
        let Some(src) = self.stored.iter().find(|s| s.path == src_path) else {
            return false;
        };
        let image = src.image.clone();
        self.store(new_owner, new_path, image, now);
        true
    }

    /// Mark an image as used now.
    #[cfg(test)]
    pub(crate) fn touch(&mut self, path: &str, now: SimTime) -> bool {
        for s in &mut self.stored {
            if s.path == path {
                s.last_used = now;
                return true;
            }
        }
        false
    }

    /// Copies unused for at least `stale_after_days`.
    pub fn stale(&self, now: SimTime, stale_after_days: f64) -> Vec<&StoredImage> {
        self.stored
            .iter()
            .filter(|s| now.since(s.last_used).as_secs_f64() / 86_400.0 >= stale_after_days)
            .collect()
    }

    /// Total known vulnerabilities across *stale* copies — the attack
    /// surface the paper worries about.
    pub fn stale_vuln_load(&self, now: SimTime, stale_after_days: f64) -> u32 {
        self.stale(now, stale_after_days)
            .iter()
            .map(|s| s.image.total_vulns_at(now))
            .sum()
    }

    /// All copies.
    pub fn len(&self) -> usize {
        self.stored.len()
    }

    /// True when empty.
    // analyze:allow(dead-pub): the emptiness check that goes with the live `len` (clippy::len_without_is_empty)
    pub fn is_empty(&self) -> bool {
        self.stored.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DAY: u64 = 86_400;

    #[test]
    fn cloning_proliferates() {
        let mut reg = ContainerRegistry::new();
        let img = Image::typical_research_stack("stack.sif", SimTime::ZERO);
        reg.store(Uid(1), "/proj/a/stack.sif", img, SimTime::ZERO);
        assert!(reg.clone_image(
            "/proj/a/stack.sif",
            Uid(2),
            "/home/u2/stack.sif",
            SimTime::from_secs(DAY)
        ));
        assert!(!reg.clone_image("/nope", Uid(3), "/x", SimTime::ZERO));
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn staleness_and_vuln_load() {
        let mut reg = ContainerRegistry::new();
        let img = Image::typical_research_stack("stack.sif", SimTime::ZERO);
        reg.store(Uid(1), "/a", img.clone(), SimTime::ZERO);
        reg.store(Uid(2), "/b", img, SimTime::ZERO);
        let later = SimTime::from_secs(400 * DAY);
        // /a gets touched recently; /b rots.
        reg.touch("/a", SimTime::from_secs(395 * DAY));
        let stale = reg.stale(later, 90.0);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].path, "/b");
        assert!(reg.stale_vuln_load(later, 90.0) > 0);
        // Fresh cutoff catches both.
        assert_eq!(reg.stale(later, 1.0).len(), 2);
    }

    #[test]
    fn touch_unknown_is_false() {
        let mut reg = ContainerRegistry::new();
        assert!(!reg.touch("/missing", SimTime::ZERO));
        assert!(reg.is_empty());
    }
}
