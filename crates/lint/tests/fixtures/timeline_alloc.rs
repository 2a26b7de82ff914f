// lint-fixture-path: crates/viz/src/timeline.rs
//! Fixture: the renderer arm in the layout — nothing is allocated in a
//! per-entry loop; the per-row loop may build a row's one label.

fn lay_out(rows: &[Row], scene: &mut Scene) {
    let mut glyphs = Vec::new(); // ok: one buffer a layout
    for row in rows {
        scene.label(row.id.to_string()); // ok: the row's one element
        for e in &row.entries {
            let class = format!("viz:Glyph/{}", e.shape); // finding
            let tip = e.describe().to_owned(); // finding
            let points = vec![(e.x, e.y)]; // finding
            let mut details = String::new(); // finding
            let words: Vec<&str> = tip.split(' ').collect(); // finding
            glyphs.push((class, tip, points, details, words));
        }
        for g in &glyphs {
            scene.push(g.0.to_string()); // finding
        }
    }
}
