//! The legend panel: glyph shapes, band colors, and the medication
//! palette, generated from the presentation ontology so the legend can
//! never drift from the actual encoding.

use crate::color;
use crate::scene::{Primitive, Scene};
use pastas_codes::atc::LEVEL1_GROUPS;
use pastas_ontology::presentation::{BandKind, GlyphShape};

/// One legend row: swatch class, label.
#[derive(Debug, Clone, PartialEq)]
pub struct LegendItem {
    /// Scene class of the swatch (`viz:Glyph/...`, `viz:Band/...`,
    /// `viz:Color/<letter>`).
    pub class: String,
    /// Human label.
    pub label: String,
}

/// All legend items in display order: glyphs, bands, then the medication
/// color classes.
pub fn legend_items() -> Vec<LegendItem> {
    let mut out = Vec::new();
    for (shape, label) in [
        (GlyphShape::Square, "diagnosis"),
        (GlyphShape::Arrow, "measurement"),
        (GlyphShape::Triangle, "medication dispensing"),
        (GlyphShape::Cross, "note"),
    ] {
        out.push(LegendItem {
            class: shape.class().to_owned(),
            label: label.to_owned(),
        });
    }
    for (band, label) in [
        (BandKind::Hospital, "hospital episode"),
        (BandKind::Municipal, "municipal care"),
        (BandKind::Rehabilitation, "rehabilitation"),
        (BandKind::Medication, "medication exposure"),
    ] {
        out.push(LegendItem {
            class: band.class().to_owned(),
            label: label.to_owned(),
        });
    }
    for (i, (letter, name)) in LEVEL1_GROUPS.iter().enumerate() {
        let _ = i;
        out.push(LegendItem {
            class: format!("viz:Color/{letter}"),
            label: format!("ATC {letter} — {name}"),
        });
    }
    out
}

/// Render the legend as a scene column of `width` px.
pub fn render_legend(width: f64) -> Scene {
    let items = legend_items();
    let row_h = 16.0;
    let mut scene = Scene::new(width, items.len() as f64 * row_h + 8.0);
    for (i, item) in items.iter().enumerate() {
        let y = 4.0 + i as f64 * row_h;
        let cy = y + row_h / 2.0;
        let prim = if let Some(band) = item.class.strip_prefix("viz:Band/") {
            let fill = match band {
                "hospital" => color::BAND_HOSPITAL,
                "municipal" => color::BAND_MUNICIPAL,
                "rehabilitation" => color::BAND_REHAB,
                _ => color::BAND_MEDICATION,
            };
            Primitive::Rect { x: 4.0, y: y + 3.0, w: 18.0, h: row_h - 6.0, fill }
        } else if let Some(letter) = item.class.strip_prefix("viz:Color/") {
            let idx = LEVEL1_GROUPS
                .iter()
                .position(|(g, _)| letter.starts_with(*g))
                .unwrap_or(0);
            Primitive::Rect {
                x: 6.0,
                y: y + 4.0,
                w: 12.0,
                h: row_h - 8.0,
                fill: color::MEDICATION_PALETTE[idx],
            }
        } else {
            match item.class.as_str() {
                "viz:Glyph/square" => {
                    Primitive::Rect { x: 8.0, y: cy - 4.0, w: 8.0, h: 8.0, fill: color::GLYPH_INK }
                }
                "viz:Glyph/arrow" => Primitive::Polygon {
                    points: vec![(12.0, cy - 5.0), (8.0, cy + 4.0), (16.0, cy + 4.0)],
                    fill: color::GLYPH_INK,
                },
                "viz:Glyph/triangle" => Primitive::Polygon {
                    points: vec![(12.0, cy + 4.0), (8.0, cy - 4.0), (16.0, cy - 4.0)],
                    fill: color::GLYPH_INK,
                },
                _ => Primitive::Circle { cx: 12.0, cy, r: 4.0, fill: color::GLYPH_INK },
            }
        };
        scene.push(prim, item.class.clone());
        scene.push(
            Primitive::Text {
                x: 28.0,
                y: cy + 3.5,
                text: item.label.clone(),
                size: 10.0,
                fill: color::GLYPH_INK,
            },
            "viz:Legend/label",
        );
    }
    scene
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn legend_covers_glyphs_bands_and_all_atc_groups() {
        let items = legend_items();
        assert_eq!(items.len(), 4 + 4 + 14);
        assert!(items.iter().any(|i| i.class == "viz:Glyph/square" && i.label == "diagnosis"));
        assert!(items.iter().any(|i| i.class == "viz:Band/hospital"));
        assert!(items.iter().any(|i| i.label.contains("Cardiovascular system")));
    }

    #[test]
    fn legend_scene_has_swatch_and_label_per_item() {
        let scene = render_legend(220.0);
        let items = legend_items();
        assert_eq!(scene.count_class_prefix("viz:Legend/label"), items.len());
        // One swatch per item (everything that isn't a label).
        assert_eq!(scene.len() - items.len(), items.len());
    }

    #[test]
    fn color_swatches_use_the_palette_in_group_order() {
        let scene = render_legend(220.0);
        let swatch = scene
            .elements
            .iter()
            .find(|e| e.class == "viz:Color/C")
            .expect("cardiovascular swatch");
        if let Primitive::Rect { fill, .. } = swatch.primitive {
            assert_eq!(fill, color::MEDICATION_PALETTE[2], "C is group index 2");
        } else {
            panic!("color swatch should be a rect");
        }
    }
}
