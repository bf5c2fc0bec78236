//! Synthetic user populations.
//!
//! Builds a realistic account layout in the [`UserDb`]: N users under the
//! user-private-group scheme, P project groups with steward-managed rosters,
//! and a Zipf activity distribution (a few users submit most jobs — the
//! university-cluster shape Sec. II describes).

use eus_simcore::{SimRng, Zipf};
use eus_simos::{Gid, Uid, UserDb};

/// A generated population.
#[derive(Debug, Clone)]
pub struct UserPopulation {
    /// All generated users, index-aligned with the activity distribution.
    pub users: Vec<Uid>,
    /// Project groups.
    pub projects: Vec<Gid>,
    activity: Zipf,
}

impl UserPopulation {
    /// Create `n_users` users and `n_projects` project groups in `db`.
    /// Each project gets a random steward and a random membership of 2–8
    /// users. `activity_skew` is the Zipf exponent (0 = uniform activity).
    pub fn build(
        db: &mut UserDb,
        n_users: usize,
        n_projects: usize,
        activity_skew: f64,
        rng: &mut SimRng,
    ) -> Self {
        assert!(n_users > 0, "population needs at least one user");
        let users: Vec<Uid> = (0..n_users)
            .map(|i| db.create_user(&format!("user{i:04}")).expect("unique name"))
            .collect();
        let mut projects = Vec::with_capacity(n_projects);
        for p in 0..n_projects {
            let steward = *rng.pick(&users);
            let gid = db
                .create_project_group(&format!("proj{p:03}"), steward)
                .expect("unique name");
            let size = rng.range_u64(2, 9) as usize;
            for _ in 0..size {
                let member = *rng.pick(&users);
                // Ignore "already a member" duplicates.
                let _ = db.add_to_group(steward, gid, member);
            }
            projects.push(gid);
        }
        UserPopulation {
            users,
            projects,
            activity: Zipf::new(n_users, activity_skew),
        }
    }

    /// Draw a user weighted by activity (rank 0 = most active).
    pub fn active_user(&self, rng: &mut SimRng) -> Uid {
        self.users[self.activity.sample(rng)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn population_has_upgs_and_projects() {
        let mut db = UserDb::new();
        let mut rng = SimRng::seed_from_u64(1);
        let pop = UserPopulation::build(&mut db, 20, 5, 1.0, &mut rng);
        assert_eq!(pop.users.len(), 20);
        assert_eq!(pop.projects.len(), 5);
        // Every user has a private group containing exactly themselves.
        for &u in &pop.users {
            let cred = db.credentials(u).unwrap();
            for &v in &pop.users {
                assert_eq!(db.is_member(v, cred.gid), v == u);
            }
        }
        // Projects have at least their steward.
        for &p in &pop.projects {
            assert!(pop.users.iter().any(|&u| db.is_member(u, p)));
        }
    }

    #[test]
    fn activity_skew_concentrates_submissions() {
        let mut db = UserDb::new();
        let mut rng = SimRng::seed_from_u64(2);
        let pop = UserPopulation::build(&mut db, 50, 0, 1.2, &mut rng);
        let mut counts = vec![0usize; 50];
        for _ in 0..20_000 {
            let u = pop.active_user(&mut rng);
            let idx = pop.users.iter().position(|x| *x == u).unwrap();
            counts[idx] += 1;
        }
        assert!(
            counts[0] > counts[25] * 3,
            "heavy head expected: {counts:?}"
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let build = |seed| {
            let mut db = UserDb::new();
            let mut rng = SimRng::seed_from_u64(seed);
            let pop = UserPopulation::build(&mut db, 10, 3, 1.0, &mut rng);
            (0..5)
                .map(|_| pop.active_user(&mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(7), build(7));
    }
}
