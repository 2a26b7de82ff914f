//! ICPC-2 — the International Classification of Primary Care.
//!
//! ICPC-2 codes are one chapter letter plus a two-digit component number:
//! `T90` = "Diabetes non-insulin dependent" (chapter T, *Endocrine/
//! Metabolic and Nutritional*). The paper's own example regexes (`F.*|H.*`,
//! the diabetes anchor `T90`) operate over this alphabet.

/// The 17 ICPC-2 chapters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[expect(missing_docs, reason = "a trailing comment names each chapter")]
pub enum Chapter {
    A, // General and unspecified
    B, // Blood, blood forming organs
    D, // Digestive
    F, // Eye
    H, // Ear
    K, // Cardiovascular
    L, // Musculoskeletal
    N, // Neurological
    P, // Psychological
    R, // Respiratory
    S, // Skin
    T, // Endocrine/metabolic and nutritional
    U, // Urological
    W, // Pregnancy, childbearing, family planning
    X, // Female genital
    Y, // Male genital
    Z, // Social problems
}

impl Chapter {
    /// All chapters in canonical order.
    pub const ALL: [Chapter; 17] = [
        Chapter::A,
        Chapter::B,
        Chapter::D,
        Chapter::F,
        Chapter::H,
        Chapter::K,
        Chapter::L,
        Chapter::N,
        Chapter::P,
        Chapter::R,
        Chapter::S,
        Chapter::T,
        Chapter::U,
        Chapter::W,
        Chapter::X,
        Chapter::Y,
        Chapter::Z,
    ];

    /// The chapter letter.
    pub fn letter(self) -> char {
        match self {
            Chapter::A => 'A',
            Chapter::B => 'B',
            Chapter::D => 'D',
            Chapter::F => 'F',
            Chapter::H => 'H',
            Chapter::K => 'K',
            Chapter::L => 'L',
            Chapter::N => 'N',
            Chapter::P => 'P',
            Chapter::R => 'R',
            Chapter::S => 'S',
            Chapter::T => 'T',
            Chapter::U => 'U',
            Chapter::W => 'W',
            Chapter::X => 'X',
            Chapter::Y => 'Y',
            Chapter::Z => 'Z',
        }
    }

    /// Parse a chapter letter.
    pub fn from_letter(c: char) -> Option<Chapter> {
        Chapter::ALL.into_iter().find(|ch| ch.letter() == c.to_ascii_uppercase())
    }

    /// The body-system / problem-area title of the chapter.
    pub fn title(self) -> &'static str {
        match self {
            Chapter::A => "General and unspecified",
            Chapter::B => "Blood, blood-forming organs and immune mechanism",
            Chapter::D => "Digestive",
            Chapter::F => "Eye",
            Chapter::H => "Ear",
            Chapter::K => "Cardiovascular",
            Chapter::L => "Musculoskeletal",
            Chapter::N => "Neurological",
            Chapter::P => "Psychological",
            Chapter::R => "Respiratory",
            Chapter::S => "Skin",
            Chapter::T => "Endocrine, metabolic and nutritional",
            Chapter::U => "Urological",
            Chapter::W => "Pregnancy, childbearing, family planning",
            Chapter::X => "Female genital",
            Chapter::Y => "Male genital",
            Chapter::Z => "Social problems",
        }
    }
}

/// The ICPC-2 component a code number falls into.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// 1–29: symptoms and complaints.
    SymptomsComplaints,
    /// 30–69: process codes (diagnostics, treatment, referral, …).
    Process,
    /// 70–99: diagnoses and diseases.
    Diagnoses,
}

/// A parsed, validated ICPC-2 code.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct IcpcCode {
    /// The chapter.
    pub chapter: Chapter,
    /// The two-digit number, 1–99, or `None` for a bare chapter code used
    /// as a hierarchy node ("T").
    pub number: Option<u8>,
}

impl IcpcCode {
    /// Parse `"T90"` or a bare chapter `"T"`. Whitespace is not accepted;
    /// normalize with [`crate::Code::new`] first.
    pub fn parse(s: &str) -> Option<IcpcCode> {
        let mut chars = s.chars();
        let chapter = Chapter::from_letter(chars.next()?)?;
        let rest = chars.as_str();
        if rest.is_empty() {
            return Some(IcpcCode { chapter, number: None });
        }
        if rest.len() != 2 || !rest.bytes().all(|b| b.is_ascii_digit()) {
            return None;
        }
        let n: u8 = rest.parse().ok()?;
        if n == 0 {
            return None;
        }
        Some(IcpcCode { chapter, number: Some(n) })
    }

    /// Which component the code belongs to (bare chapters have none).
    pub fn component(self) -> Option<Component> {
        Some(match self.number? {
            1..=29 => Component::SymptomsComplaints,
            30..=69 => Component::Process,
            _ => Component::Diagnoses,
        })
    }

    /// The parent code string: full codes roll up to their chapter.
    pub fn parent(self) -> Option<String> {
        self.number.map(|_| self.chapter.letter().to_string())
    }

    /// Render back to the canonical string form.
    pub fn to_code_string(self) -> String {
        match self.number {
            Some(n) => format!("{}{:02}", self.chapter.letter(), n),
            None => self.chapter.letter().to_string(),
        }
    }

    /// True for chronic-disease diagnosis codes — component 7 (70–99).
    pub fn is_diagnosis(self) -> bool {
        matches!(self.component(), Some(Component::Diagnoses))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_known_codes() {
        let c = IcpcCode::parse("T90").unwrap();
        assert_eq!(c.chapter, Chapter::T);
        assert_eq!(c.number, Some(90));
        assert_eq!(c.component(), Some(Component::Diagnoses));
        assert!(c.is_diagnosis());
    }

    #[test]
    fn parses_bare_chapter() {
        let c = IcpcCode::parse("K").unwrap();
        assert_eq!(c.chapter, Chapter::K);
        assert_eq!(c.number, None);
        assert_eq!(c.component(), None);
        assert_eq!(c.parent(), None);
    }

    #[test]
    fn rejects_bad_codes() {
        for bad in ["E11", "C07", "T9", "T900", "T00", "TT0", "", "9T0", "t 90"] {
            assert!(IcpcCode::parse(bad).is_none(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn component_boundaries() {
        assert_eq!(IcpcCode::parse("A01").unwrap().component(), Some(Component::SymptomsComplaints));
        assert_eq!(IcpcCode::parse("A29").unwrap().component(), Some(Component::SymptomsComplaints));
        assert_eq!(IcpcCode::parse("A30").unwrap().component(), Some(Component::Process));
        assert_eq!(IcpcCode::parse("A69").unwrap().component(), Some(Component::Process));
        assert_eq!(IcpcCode::parse("A70").unwrap().component(), Some(Component::Diagnoses));
        assert_eq!(IcpcCode::parse("A99").unwrap().component(), Some(Component::Diagnoses));
    }

    #[test]
    fn parent_is_chapter() {
        assert_eq!(IcpcCode::parse("T90").unwrap().parent(), Some("T".to_owned()));
    }

    #[test]
    fn round_trip() {
        for s in ["T90", "F01", "K74", "Z"] {
            assert_eq!(IcpcCode::parse(s).unwrap().to_code_string(), s);
        }
    }

    #[test]
    fn chapter_tables_are_consistent() {
        assert_eq!(Chapter::ALL.len(), 17);
        for ch in Chapter::ALL {
            assert_eq!(Chapter::from_letter(ch.letter()), Some(ch));
            assert!(!ch.title().is_empty());
        }
        // C, E, G … are not ICPC chapters.
        for c in ['C', 'E', 'G', 'I', 'J', 'M', 'O', 'Q', 'V'] {
            assert_eq!(Chapter::from_letter(c), None);
        }
    }
}
