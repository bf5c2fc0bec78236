//! Container images and the staleness model (paper Sec. IV-G).
//!
//! The paper's container concern is not the runtime but the *content*:
//! "they open the HPC system up to other attack vectors including stale code
//! and libraries and they are known to harbor vulnerable code", and shared
//! images "tend to get proliferated across central file systems". Images
//! here carry package metadata with vulnerability-accrual so the sprawl
//! experiment can quantify that claim (after Zerouali et al., ref. 47 of the paper).

use eus_simcore::SimTime;
use std::fmt;

/// One packaged library inside an image.
#[derive(Debug, Clone, PartialEq)]
pub struct Package {
    /// Name, e.g. `"openssl"`.
    pub name: String,
    /// Version string at build time.
    pub version: String,
    /// Known vulnerabilities at build time.
    pub vulns_at_build: u32,
    /// New vulnerabilities disclosed per 30 simulated days after build
    /// (the accrual rate from container-staleness studies).
    pub vuln_accrual_per_month: f64,
}

impl Package {
    /// A package with the given accrual model.
    pub fn new(
        name: impl Into<String>,
        version: impl Into<String>,
        vulns_at_build: u32,
        vuln_accrual_per_month: f64,
    ) -> Self {
        Package {
            name: name.into(),
            version: version.into(),
            vulns_at_build,
            vuln_accrual_per_month,
        }
    }

    /// Known vulnerabilities as of `now`, given the image build time.
    pub fn vulns_at(&self, built: SimTime, now: SimTime) -> u32 {
        let months = now.since(built).as_secs_f64() / (30.0 * 86_400.0);
        self.vulns_at_build + (months * self.vuln_accrual_per_month).floor() as u32
    }
}

/// A container image.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    /// Image name (e.g. `"pytorch-2.1.sif"`).
    pub name: String,
    /// Build time.
    pub built: SimTime,
    /// Contents.
    pub packages: Vec<Package>,
}

impl Image {
    /// An image built at `built`.
    pub fn new(name: impl Into<String>, built: SimTime) -> Self {
        Image {
            name: name.into(),
            built,
            packages: Vec::new(),
        }
    }

    /// Builder: add a package.
    pub fn with_package(mut self, p: Package) -> Self {
        self.packages.push(p);
        self
    }

    /// A typical research stack: a handful of system libraries with modest
    /// accrual rates.
    pub fn typical_research_stack(name: impl Into<String>, built: SimTime) -> Self {
        Image::new(name, built)
            .with_package(Package::new("openssl", "3.0.2", 0, 1.1))
            .with_package(Package::new("glibc", "2.35", 0, 0.4))
            .with_package(Package::new("python", "3.10.4", 0, 0.6))
            .with_package(Package::new("numpy", "1.22.3", 0, 0.2))
            .with_package(Package::new("openmpi", "4.1.2", 0, 0.3))
    }

    /// Total known vulnerabilities across packages as of `now`.
    pub fn total_vulns_at(&self, now: SimTime) -> u32 {
        self.packages
            .iter()
            .map(|p| p.vulns_at(self.built, now))
            .sum()
    }
}

impl fmt::Display for Image {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} packages)", self.name, self.packages.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vulns_accrue_with_age() {
        let built = SimTime::ZERO;
        let img = Image::typical_research_stack("pytorch.sif", built);
        assert_eq!(img.total_vulns_at(built), 0, "fresh image clean");
        let one_year = SimTime::from_secs(365 * 86_400);
        let old = img.total_vulns_at(one_year);
        assert!(old >= 25, "a year of accrual across 5 packages: {old}");
    }

    #[test]
    fn package_accrual_floor() {
        let p = Package::new("x", "1", 2, 1.0);
        // Half a month: floor(0.5) = 0 new.
        let half_month = SimTime::from_secs(15 * 86_400);
        assert_eq!(p.vulns_at(SimTime::ZERO, half_month), 2);
        let two_months = SimTime::from_secs(60 * 86_400);
        assert_eq!(p.vulns_at(SimTime::ZERO, two_months), 4);
    }
}
