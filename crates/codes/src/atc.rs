//! ATC — the Anatomical Therapeutic Chemical classification.
//!
//! Prescriptions in the aggregated data are ATC-coded. The visualization
//! maps **level-1 anatomical groups** (and, zoomed in, level-2/3 groups) to
//! hues — the paper's Fig. 1 caption: "The colors in the visualization show
//! different classes of medication", and LifeLines' abstraction example
//! ("beta blocker" vs "atenolol") is exactly the level-3 → level-5 roll-up
//! this module provides.
//!
//! Structure of a complete code, e.g. `C07AB02` (metoprolol):
//!
//! | level | chars | example | meaning |
//! |---|---|---|---|
//! | 1 | 1    | `C`       | anatomical main group (Cardiovascular) |
//! | 2 | 1–3  | `C07`     | therapeutic subgroup (Beta blocking agents) |
//! | 3 | 1–4  | `C07A`    | pharmacological subgroup |
//! | 4 | 1–5  | `C07AB`   | chemical subgroup (selective) |
//! | 5 | 1–7  | `C07AB02` | chemical substance (metoprolol) |

/// The 14 ATC level-1 anatomical main groups.
pub const LEVEL1_GROUPS: [(char, &str); 14] = [
    ('A', "Alimentary tract and metabolism"),
    ('B', "Blood and blood forming organs"),
    ('C', "Cardiovascular system"),
    ('D', "Dermatologicals"),
    ('G', "Genito-urinary system and sex hormones"),
    ('H', "Systemic hormonal preparations"),
    ('J', "Antiinfectives for systemic use"),
    ('L', "Antineoplastic and immunomodulating agents"),
    ('M', "Musculo-skeletal system"),
    ('N', "Nervous system"),
    ('P', "Antiparasitic products"),
    ('R', "Respiratory system"),
    ('S', "Sensory organs"),
    ('V', "Various"),
];

/// A parsed, validated ATC code at any of the five levels.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AtcCode {
    /// Normalized code text, 1–7 chars.
    pub text: String,
}

impl AtcCode {
    /// Parse an ATC code at any level: `C`, `C07`, `C07A`, `C07AB`,
    /// `C07AB02`.
    pub fn parse(s: &str) -> Option<AtcCode> {
        let b = s.as_bytes();
        let ok = match b.len() {
            1 => b[0].is_ascii_uppercase(),
            3 => b[0].is_ascii_uppercase() && b[1].is_ascii_digit() && b[2].is_ascii_digit(),
            4 => Self::level2_ok(b) && b[3].is_ascii_uppercase(),
            5 => Self::level2_ok(b) && b[3].is_ascii_uppercase() && b[4].is_ascii_uppercase(),
            7 => {
                Self::level2_ok(b)
                    && b[3].is_ascii_uppercase()
                    && b[4].is_ascii_uppercase()
                    && b[5].is_ascii_digit()
                    && b[6].is_ascii_digit()
            }
            _ => false,
        };
        let valid_group = LEVEL1_GROUPS.iter().any(|&(g, _)| g as u8 == b.first().copied().unwrap_or(0));
        (ok && valid_group).then(|| AtcCode { text: s.to_owned() })
    }

    fn level2_ok(b: &[u8]) -> bool {
        b[0].is_ascii_uppercase() && b[1].is_ascii_digit() && b[2].is_ascii_digit()
    }

    /// The classification level, 1–5.
    pub fn level(&self) -> u8 {
        match self.text.len() {
            1 => 1,
            3 => 2,
            4 => 3,
            5 => 4,
            _ => 5,
        }
    }

    /// Truncate to a coarser level (`None` if `level` is coarser than 1 or
    /// finer than the code itself).
    pub fn at_level(&self, level: u8) -> Option<AtcCode> {
        if level < 1 || level > self.level() {
            return None;
        }
        let len = match level {
            1 => 1,
            2 => 3,
            3 => 4,
            4 => 5,
            _ => 7,
        };
        Some(AtcCode { text: self.text[..len].to_owned() })
    }

    /// Parent code (one level up); `None` at level 1.
    pub fn parent(&self) -> Option<String> {
        // at_level is Some for every level up to level(), and level() > 1 is checked
        (self.level() > 1).then(|| self.at_level(self.level() - 1).expect("level checked").text)
    }

    /// The level-1 anatomical main group letter.
    pub fn main_group(&self) -> char {
        self.text.as_bytes()[0] as char
    }

    /// Position of the main group within [`LEVEL1_GROUPS`] — the dense
    /// id the analytics accumulators index by.
    pub fn main_group_index(&self) -> usize {
        LEVEL1_GROUPS
            .iter()
            .position(|&(g, _)| g == self.main_group())
            // AtcCode::parse rejects any code whose first letter is outside LEVEL1_GROUPS
            .expect("validated at parse time")
    }

    /// Name of the level-1 main group.
    pub fn main_group_name(&self) -> &'static str {
        LEVEL1_GROUPS
            .iter()
            .find(|&&(g, _)| g == self.main_group())
            .map(|&(_, name)| name)
            .expect("validated at parse time")
    }
}

impl std::fmt::Display for AtcCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_all_levels() {
        for (s, level) in [("C", 1), ("C07", 2), ("C07A", 3), ("C07AB", 4), ("C07AB02", 5)] {
            let c = AtcCode::parse(s).unwrap_or_else(|| panic!("{s} should parse"));
            assert_eq!(c.level(), level, "{s}");
        }
    }

    #[test]
    fn rejects_malformed() {
        for bad in ["", "c07", "C0", "C07a", "C07AB0", "C07AB023", "C7A", "CO7", "X07", "E11", "T90"] {
            assert!(AtcCode::parse(bad).is_none(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn rejects_unassigned_main_groups() {
        // E, F, I, K, O, Q, T, U, W, X, Y, Z are not ATC main groups.
        for bad in ["E01", "F01", "I01", "T01", "Z01"] {
            assert!(AtcCode::parse(bad).is_none(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn level_truncation() {
        let c = AtcCode::parse("C07AB02").unwrap();
        assert_eq!(c.at_level(1).unwrap().text, "C");
        assert_eq!(c.at_level(2).unwrap().text, "C07");
        assert_eq!(c.at_level(3).unwrap().text, "C07A");
        assert_eq!(c.at_level(4).unwrap().text, "C07AB");
        assert_eq!(c.at_level(5).unwrap().text, "C07AB02");
        assert_eq!(c.at_level(0), None);
        assert_eq!(AtcCode::parse("C07").unwrap().at_level(4), None);
    }

    #[test]
    fn parent_chain() {
        let mut cur = "C07AB02".to_owned();
        let mut chain = Vec::new();
        while let Some(p) = AtcCode::parse(&cur).unwrap().parent() {
            chain.push(p.clone());
            cur = p;
        }
        assert_eq!(chain, vec!["C07AB", "C07A", "C07", "C"]);
    }

    #[test]
    fn main_group_names() {
        assert_eq!(AtcCode::parse("C07AB02").unwrap().main_group_name(), "Cardiovascular system");
        assert_eq!(AtcCode::parse("N02").unwrap().main_group_name(), "Nervous system");
        assert_eq!(LEVEL1_GROUPS.len(), 14);
    }
}
