//! The **visual presentation** ontology — the second of the paper's two
//! OWL formalizations.
//!
//! Where the integration ontology answers "what is this entry, clinically?",
//! this one answers "how is it drawn?". It fixes the mapping from entry
//! classes to *glyph families* (Fig. 1: "small rectangles and arrows
//! indicating diagnoses and blood pressure measurements"), from interval
//! classes to *background bands*, and from ATC groups to *color classes*
//! ("The colors in the visualization show different classes of
//! medication"). The shapes are drawn from Ware's preattentive-feature
//! catalogue (§II.B.2) so that searching for one family of marks stays in
//! the preattentive regime; `pastas-perception` validates that property.
//!
//! Abstraction ("beta blocker" vs "atenolol" — the LifeLines example the
//! paper cites) is served by [`PresentationOntology::abstract_label`].

use pastas_codes::{atc::AtcCode, catalog, Code, CodeSystem};
use pastas_model::{EntryView, EpisodeKind, PayloadRef};

/// Glyph families for point events — simple, preattentively distinct
/// shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GlyphShape {
    /// Diagnoses — the "small rectangles" of Fig. 1.
    Square,
    /// Measurements — the "arrows" of Fig. 1.
    Arrow,
    /// Medication dispensings.
    Triangle,
    /// Free-text notes.
    Cross,
    /// Anything else.
    Circle,
}

impl GlyphShape {
    /// The presentation class, `viz:Glyph/<name>`.
    pub fn class(self) -> &'static str {
        match self {
            GlyphShape::Square => "viz:Glyph/square",
            GlyphShape::Arrow => "viz:Glyph/arrow",
            GlyphShape::Triangle => "viz:Glyph/triangle",
            GlyphShape::Cross => "viz:Glyph/cross",
            GlyphShape::Circle => "viz:Glyph/circle",
        }
    }
}

/// Background band families for interval entries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BandKind {
    /// Hospital episodes (inpatient, outpatient, day treatment).
    Hospital,
    /// Municipal care (home care, nursing home).
    Municipal,
    /// Rehabilitation.
    Rehabilitation,
    /// Derived medication-exposure periods.
    Medication,
}

impl BandKind {
    /// The presentation class, `viz:Band/<name>`.
    pub fn class(self) -> &'static str {
        match self {
            BandKind::Hospital => "viz:Band/hospital",
            BandKind::Municipal => "viz:Band/municipal",
            BandKind::Rehabilitation => "viz:Band/rehabilitation",
            BandKind::Medication => "viz:Band/medication",
        }
    }
}

/// A medication color class: one of the 14 ATC level-1 anatomical groups,
/// as a dense index into the categorical palette.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColorClass(pub u8);

impl ColorClass {
    /// The ATC main-group letter of this color class.
    pub fn group_letter(self) -> char {
        pastas_codes::atc::LEVEL1_GROUPS[self.0 as usize].0
    }

    /// The ATC main-group name (legend label).
    pub fn group_name(self) -> &'static str {
        pastas_codes::atc::LEVEL1_GROUPS[self.0 as usize].1
    }
}

/// The presentation ontology.
///
/// All mappings below are *entailments of the presentation TBox*: a
/// dispensing of `C07AB02` is colored as a cardiovascular agent because
/// `ATC:C07AB02 ⊑ ATC:C ⊑ viz:Color/C`. The hierarchy walking is done by
/// the codes crate; this type packages the ontology-level decisions.
#[derive(Debug, Default)]
pub struct PresentationOntology {}

impl PresentationOntology {
    /// Build the presentation ontology.
    pub fn new() -> PresentationOntology {
        PresentationOntology {}
    }

    /// The glyph family for a point entry's payload. Accepts `&Payload`
    /// or a borrowed [`PayloadRef`] from the columnar store.
    pub fn glyph_for<'a>(&self, payload: impl Into<PayloadRef<'a>>) -> GlyphShape {
        match payload.into() {
            PayloadRef::Diagnosis(_) => GlyphShape::Square,
            PayloadRef::Measurement { .. } => GlyphShape::Arrow,
            PayloadRef::Medication(_) => GlyphShape::Triangle,
            PayloadRef::Note(_) => GlyphShape::Cross,
            PayloadRef::Episode(_) => GlyphShape::Circle,
        }
    }

    /// The band family for an interval entry, if it is drawn as a band.
    /// Accepts `&Payload` or a borrowed [`PayloadRef`].
    pub fn band_for<'a>(&self, payload: impl Into<PayloadRef<'a>>) -> Option<BandKind> {
        match payload.into() {
            PayloadRef::Episode(k) => Some(match k {
                EpisodeKind::Inpatient | EpisodeKind::Outpatient | EpisodeKind::DayTreatment => {
                    BandKind::Hospital
                }
                EpisodeKind::HomeCare | EpisodeKind::NursingHome => BandKind::Municipal,
                EpisodeKind::Rehabilitation => BandKind::Rehabilitation,
                EpisodeKind::MedicationExposure => BandKind::Medication,
            }),
            PayloadRef::Medication(_) => Some(BandKind::Medication),
            _ => None,
        }
    }

    /// The color class of a medication code: its ATC level-1 group.
    /// `None` for non-ATC or unparseable codes.
    pub fn color_class(&self, code: &Code) -> Option<ColorClass> {
        if code.system != CodeSystem::Atc {
            return None;
        }
        let atc = AtcCode::parse(&code.value)?;
        let idx = pastas_codes::atc::LEVEL1_GROUPS
            .iter()
            .position(|&(g, _)| g == atc.main_group())?;
        Some(ColorClass(idx as u8))
    }

    /// The color class of an entry (medication payloads only).
    pub fn entry_color_class<E: EntryView>(&self, entry: E) -> Option<ColorClass> {
        match entry.payload_ref() {
            PayloadRef::Medication(c) => self.color_class(c),
            _ => None,
        }
    }

    /// LifeLines-style abstraction: the display label of a code at an
    /// abstraction `level` (ATC level 1–5; for diagnoses, level ≤ 1 gives
    /// the chapter, anything else the code itself). Falls back to the code
    /// string when the catalog has no name.
    pub fn abstract_label(&self, code: &Code, level: u8) -> String {
        match code.system {
            CodeSystem::Atc => {
                let Some(atc) = AtcCode::parse(&code.value) else {
                    return code.value.clone();
                };
                let truncated =
                    atc.at_level(level.clamp(1, 5)).unwrap_or(atc);
                catalog::name_of(CodeSystem::Atc, &truncated.text)
                    .map(str::to_owned)
                    .unwrap_or(truncated.text)
            }
            _ => {
                let value = if level <= 1 {
                    code.parent().map(|p| p.value).unwrap_or_else(|| code.value.clone())
                } else {
                    code.value.clone()
                };
                catalog::name_of(code.system, &value).map(str::to_owned).unwrap_or(value)
            }
        }
    }

    /// The presentation-class name of an entry for serialized scenes,
    /// e.g. `"viz:Glyph/square"` or `"viz:Band/hospital"`.
    pub fn presentation_class<E: EntryView>(&self, entry: E) -> &'static str {
        match self.band_for(entry.payload_ref()) {
            Some(band) if entry.is_interval() => band.class(),
            _ => self.glyph_for(entry.payload_ref()).class(),
        }
    }

    /// TBox axioms of the presentation ontology in `(sub, super)` string
    /// form — exported for the integration tests that check the two
    /// formalizations stay structurally disjoint.
    pub fn axioms(&self) -> Vec<(String, String)> {
        let mut out = vec![
            ("viz:Glyph/square".into(), "viz:Glyph".into()),
            ("viz:Glyph/arrow".into(), "viz:Glyph".into()),
            ("viz:Glyph/triangle".into(), "viz:Glyph".into()),
            ("viz:Glyph/cross".into(), "viz:Glyph".into()),
            ("viz:Glyph/circle".into(), "viz:Glyph".into()),
            ("viz:Band/hospital".into(), "viz:Band".into()),
            ("viz:Band/municipal".into(), "viz:Band".into()),
            ("viz:Band/rehabilitation".into(), "viz:Band".into()),
            ("viz:Band/medication".into(), "viz:Band".into()),
        ];
        for (g, _) in pastas_codes::atc::LEVEL1_GROUPS {
            out.push((format!("{}:{}", CodeSystem::Atc.tag(), g), format!("viz:Color/{g}")));
            out.push((format!("viz:Color/{g}"), "viz:Color".into()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pastas_model::{Entry, Payload, SourceKind};
    use pastas_time::Date;

    fn t() -> pastas_time::DateTime {
        Date::new(2020, 1, 1).unwrap().at_midnight()
    }

    #[test]
    fn glyphs_match_figure_1() {
        let o = PresentationOntology::new();
        assert_eq!(o.glyph_for(&Payload::Diagnosis(Code::icpc("T90"))), GlyphShape::Square);
        assert_eq!(
            o.glyph_for(&Payload::Measurement {
                kind: pastas_model::MeasurementKind::SystolicBp,
                value: 140.0
            }),
            GlyphShape::Arrow
        );
        assert_eq!(o.glyph_for(&Payload::Medication(Code::atc("C07AB02"))), GlyphShape::Triangle);
    }

    #[test]
    fn bands_by_episode_kind() {
        let o = PresentationOntology::new();
        assert_eq!(o.band_for(&Payload::Episode(EpisodeKind::Inpatient)), Some(BandKind::Hospital));
        assert_eq!(o.band_for(&Payload::Episode(EpisodeKind::HomeCare)), Some(BandKind::Municipal));
        assert_eq!(
            o.band_for(&Payload::Episode(EpisodeKind::MedicationExposure)),
            Some(BandKind::Medication)
        );
        assert_eq!(o.band_for(&Payload::Diagnosis(Code::icpc("T90"))), None);
    }

    #[test]
    fn color_classes_follow_atc_main_group() {
        let o = PresentationOntology::new();
        let beta = o.color_class(&Code::atc("C07AB02")).unwrap();
        let statin = o.color_class(&Code::atc("C10AA01")).unwrap();
        let ssri = o.color_class(&Code::atc("N06AB04")).unwrap();
        assert_eq!(beta, statin, "same anatomical group, same color");
        assert_ne!(beta, ssri, "different groups, different colors");
        assert_eq!(beta.group_letter(), 'C');
        assert_eq!(ssri.group_name(), "Nervous system");
        assert_eq!(o.color_class(&Code::icpc("T90")), None);
    }

    #[test]
    fn abstraction_levels() {
        let o = PresentationOntology::new();
        let metoprolol = Code::atc("C07AB02");
        assert_eq!(o.abstract_label(&metoprolol, 5), "Metoprolol");
        assert_eq!(o.abstract_label(&metoprolol, 2), "Beta blocking agents");
        assert_eq!(o.abstract_label(&metoprolol, 1), "Cardiovascular system");
        let t90 = Code::icpc("T90");
        assert_eq!(o.abstract_label(&t90, 2), "Diabetes non-insulin dependent");
        assert_eq!(o.abstract_label(&t90, 1), "Endocrine, metabolic and nutritional");
    }

    #[test]
    fn presentation_classes() {
        let o = PresentationOntology::new();
        let e = Entry::event(t(), Payload::Diagnosis(Code::icpc("T90")), SourceKind::PrimaryCare);
        assert_eq!(o.presentation_class(&e), "viz:Glyph/square");
        let stay = Entry::interval(
            t(),
            t() + pastas_time::Duration::days(2),
            Payload::Episode(EpisodeKind::Inpatient),
            SourceKind::Hospital,
        );
        assert_eq!(o.presentation_class(&stay), "viz:Band/hospital");
    }

    #[test]
    fn axioms_cover_every_glyph_band_and_group() {
        let o = PresentationOntology::new();
        let axioms = o.axioms();
        assert!(axioms.len() >= 9 + 28);
        assert!(axioms.iter().all(|(a, b)| !a.is_empty() && !b.is_empty()));
        // The viz namespace never leaks into pastas-int classes.
        assert!(axioms.iter().all(|(a, b)| !a.starts_with("pastas-int:")
            && !b.starts_with("pastas-int:")));
    }
}
