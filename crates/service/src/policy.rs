//! Assignment-policy factory shared by every table.
//!
//! The same name set the CLI's `simulate`/`compare` commands accept, so a
//! policy tuned offline can be deployed to a served table verbatim.

use tcrowd_baselines::{EntropyPolicy, LoopingPolicy, QascaPolicy, RandomPolicy};
use tcrowd_core::{
    AssignmentPolicy, EntityAwarePolicy, InherentGainPolicy, RowGrouping, StructureAwarePolicy,
};

/// Every accepted policy name, in display order.
pub const POLICY_NAMES: &[&str] =
    &["structure-aware", "inherent", "entity", "qasca", "random", "looping", "entropy"];

/// Build a named assignment policy. `rows` sizes the entity grouping; `seed`
/// fixes the stochastic policies.
pub fn make_policy(
    name: &str,
    rows: usize,
    seed: u64,
) -> Result<Box<dyn AssignmentPolicy>, String> {
    Ok(match name {
        "structure-aware" => Box::new(StructureAwarePolicy),
        "inherent" => Box::new(InherentGainPolicy),
        "entity" => Box::new(EntityAwarePolicy::new(RowGrouping::Learned {
            groups: (rows / 10).clamp(2, 8),
            seed,
        })),
        "qasca" => Box::new(QascaPolicy),
        "random" => Box::new(RandomPolicy::seeded(seed)),
        "looping" => Box::new(LoopingPolicy::default()),
        "entropy" => Box::new(EntropyPolicy),
        other => {
            return Err(format!(
                "unknown policy '{other}' (expected one of {})",
                POLICY_NAMES.join(", ")
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_policy_constructs() {
        for name in POLICY_NAMES {
            assert!(make_policy(name, 40, 1).is_ok(), "{name}");
        }
        assert!(make_policy("nope", 40, 1).is_err());
    }
}
