//! An EL-flavoured OWL reasoner.
//!
//! The two PAsTAs formalizations use exactly the constructs of the EL
//! family: atomic classes, conjunction on the left-hand side, and
//! existential restrictions — enough to express code-hierarchy subsumption
//! (`ICPC2:T90 ⊑ ICPC2:T`), cross-source bridging (`∃hasCode.Diabetes ⊑
//! DiabetesContact`) and presentation roll-ups (`ATC:C07⊑ BetaBlocker ⊑
//! CardiovascularAgent`). For that fragment, classification by
//! *completion-rule saturation* is sound, complete and polynomial
//! (Baader, Brandt & Lutz, IJCAI 2005):
//!
//! ```text
//! CR1:  X ⊑ A,  A ⊑ B            ⟹  X ⊑ B
//! CR2:  X ⊑ A1, X ⊑ A2, A1⊓A2⊑B  ⟹  X ⊑ B
//! CR3:  X ⊑ A,  A ⊑ ∃r.B         ⟹  X →r B
//! CR4:  X →r Y, Y ⊑ A, ∃r.A ⊑ B  ⟹  X ⊑ B
//! ```
//!
//! Individuals are handled as nominal classes (the standard reduction), so
//! **realization** (computing every class each ABox individual belongs to)
//! falls out of the same saturation.

use std::collections::{HashMap, HashSet, VecDeque};

/// A dense class handle (atomic class or individual-as-nominal).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClassId(pub u32);

/// A dense role (object property) handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RoleId(pub u32);

/// A normalized EL axiom.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axiom {
    /// `A ⊑ B`.
    Sub(ClassId, ClassId),
    /// `A1 ⊓ A2 ⊑ B`.
    SubConj(ClassId, ClassId, ClassId),
    /// `A ⊑ ∃r.B`.
    SubExists(ClassId, RoleId, ClassId),
    /// `∃r.A ⊑ B`.
    ExistsSub(RoleId, ClassId, ClassId),
    /// `r ⊑ s` (role hierarchy).
    SubRole(RoleId, RoleId),
}

/// The EL reasoner: axioms in, saturated subsumptions out.
#[derive(Debug, Default, Clone)]
pub struct Reasoner {
    axioms: Vec<Axiom>,
    class_count: u32,
    role_count: u32,
    /// `subs[x]` = all A with x ⊑ A (after saturation; includes x itself).
    subs: Vec<HashSet<ClassId>>,
    /// Role edges X →r Y discovered by CR3.
    edges: HashSet<(ClassId, RoleId, ClassId)>,
    saturated: bool,
}

impl Reasoner {
    /// An empty reasoner.
    pub fn new() -> Reasoner {
        Reasoner::default()
    }

    /// Allocate a fresh class handle.
    pub fn new_class(&mut self) -> ClassId {
        let id = ClassId(self.class_count);
        self.class_count += 1;
        self.saturated = false;
        id
    }

    /// Allocate a fresh role handle.
    pub fn new_role(&mut self) -> RoleId {
        let id = RoleId(self.role_count);
        self.role_count += 1;
        self.saturated = false;
        id
    }

    /// Number of classes allocated.
    pub fn class_count(&self) -> u32 {
        self.class_count
    }

    /// Add a normalized axiom.
    pub fn add(&mut self, axiom: Axiom) {
        self.axioms.push(axiom);
        self.saturated = false;
    }

    /// Convenience: `a ⊑ b`.
    pub fn sub(&mut self, a: ClassId, b: ClassId) {
        self.add(Axiom::Sub(a, b));
    }

    /// Run completion-rule saturation to fixpoint.
    ///
    /// Queue-driven semi-naive evaluation: each derived fact `X ⊑ A` or
    /// `X →r Y` is processed once against the (indexed) axioms. Total work
    /// is polynomial in |axioms| × |classes|.
    pub fn saturate(&mut self) {
        let n = self.class_count as usize;
        self.subs = (0..n).map(|i| HashSet::from([ClassId(i as u32)])).collect();
        self.edges.clear();

        // Axiom indexes.
        let mut sub_by_lhs: HashMap<ClassId, Vec<ClassId>> = HashMap::new();
        let mut conj_by_lhs: HashMap<ClassId, Vec<(ClassId, ClassId)>> = HashMap::new();
        let mut exists_by_lhs: HashMap<ClassId, Vec<(RoleId, ClassId)>> = HashMap::new();
        let mut gci_by_filler: HashMap<ClassId, Vec<(RoleId, ClassId)>> = HashMap::new();
        let mut super_roles: HashMap<RoleId, Vec<RoleId>> = HashMap::new();
        for &ax in &self.axioms {
            match ax {
                Axiom::Sub(a, b) => sub_by_lhs.entry(a).or_default().push(b),
                Axiom::SubConj(a1, a2, b) => {
                    conj_by_lhs.entry(a1).or_default().push((a2, b));
                    conj_by_lhs.entry(a2).or_default().push((a1, b));
                }
                Axiom::SubExists(a, r, b) => exists_by_lhs.entry(a).or_default().push((r, b)),
                Axiom::ExistsSub(r, a, b) => gci_by_filler.entry(a).or_default().push((r, b)),
                Axiom::SubRole(r, s) => super_roles.entry(r).or_default().push(s),
            }
        }
        // Close the role hierarchy (small) transitively.
        let role_closure: HashMap<RoleId, Vec<RoleId>> = (0..self.role_count)
            .map(|r| {
                let r = RoleId(r);
                let mut seen = HashSet::from([r]);
                let mut queue = vec![r];
                while let Some(x) = queue.pop() {
                    for &s in super_roles.get(&x).into_iter().flatten() {
                        if seen.insert(s) {
                            queue.push(s);
                        }
                    }
                }
                (r, seen.into_iter().collect())
            })
            .collect();

        // Incoming role edges indexed by target, for CR4 on new subs.
        let mut edges_by_target: HashMap<ClassId, Vec<(ClassId, RoleId)>> = HashMap::new();
        // Outgoing, for CR4 on new edges handled directly below.

        #[derive(Clone, Copy)]
        enum Fact {
            Sub(ClassId, ClassId),
            Edge(ClassId, RoleId, ClassId),
        }

        let mut queue: VecDeque<Fact> = (0..n)
            .map(|i| Fact::Sub(ClassId(i as u32), ClassId(i as u32)))
            .collect();

        while let Some(fact) = queue.pop_front() {
            match fact {
                Fact::Sub(x, a) => {
                    // CR1
                    for &b in sub_by_lhs.get(&a).into_iter().flatten() {
                        if self.subs[x.0 as usize].insert(b) {
                            queue.push_back(Fact::Sub(x, b));
                        }
                    }
                    // CR2
                    for &(a2, b) in conj_by_lhs.get(&a).into_iter().flatten() {
                        if self.subs[x.0 as usize].contains(&a2)
                            && self.subs[x.0 as usize].insert(b)
                        {
                            queue.push_back(Fact::Sub(x, b));
                        }
                    }
                    // CR3
                    for &(r, b) in exists_by_lhs.get(&a).into_iter().flatten() {
                        for &rr in role_closure.get(&r).map(|v| v.as_slice()).unwrap_or(&[]) {
                            if self.edges.insert((x, rr, b)) {
                                queue.push_back(Fact::Edge(x, rr, b));
                            }
                        }
                    }
                    // CR4 (new sub makes existing incoming edges fire)
                    for &(src, r) in edges_by_target.get(&x).into_iter().flatten() {
                        for &(gr, b) in gci_by_filler.get(&a).into_iter().flatten() {
                            if gr == r && self.subs[src.0 as usize].insert(b) {
                                queue.push_back(Fact::Sub(src, b));
                            }
                        }
                    }
                }
                Fact::Edge(x, r, y) => {
                    edges_by_target.entry(y).or_default().push((x, r));
                    // CR4 (new edge against everything y is already ⊑)
                    let supers: Vec<ClassId> = self.subs[y.0 as usize].iter().copied().collect();
                    for a in supers {
                        for &(gr, b) in gci_by_filler.get(&a).into_iter().flatten() {
                            if gr == r && self.subs[x.0 as usize].insert(b) {
                                queue.push_back(Fact::Sub(x, b));
                            }
                        }
                    }
                }
            }
        }
        self.saturated = true;
    }

    /// True if `a ⊑ b` is entailed. Panics if [`Reasoner::saturate`] has
    /// not been run since the last mutation.
    pub fn is_subsumed(&self, a: ClassId, b: ClassId) -> bool {
        assert!(self.saturated, "call saturate() before querying");
        self.subs[a.0 as usize].contains(&b)
    }

    /// All entailed superclasses of `a` (including `a`).
    pub fn superclasses(&self, a: ClassId) -> &HashSet<ClassId> {
        assert!(self.saturated, "call saturate() before querying");
        &self.subs[a.0 as usize]
    }

    /// All classes `x` with `x ⊑ b` (subsumees, including `b` itself).
    /// Linear scan — fine for classification reports; the hot path is
    /// `is_subsumed`.
    pub fn subsumees(&self, b: ClassId) -> Vec<ClassId> {
        assert!(self.saturated, "call saturate() before querying");
        (0..self.class_count)
            .map(ClassId)
            .filter(|&x| self.subs[x.0 as usize].contains(&b))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn classes(r: &mut Reasoner, n: usize) -> Vec<ClassId> {
        (0..n).map(|_| r.new_class()).collect()
    }

    #[test]
    fn cr1_transitive_chain() {
        let mut r = Reasoner::new();
        let c = classes(&mut r, 4);
        r.sub(c[0], c[1]);
        r.sub(c[1], c[2]);
        r.sub(c[2], c[3]);
        r.saturate();
        assert!(r.is_subsumed(c[0], c[3]));
        assert!(r.is_subsumed(c[1], c[3]));
        assert!(!r.is_subsumed(c[3], c[0]));
        assert!(r.is_subsumed(c[0], c[0])); // reflexive
    }

    #[test]
    fn cr2_conjunction() {
        let mut r = Reasoner::new();
        let c = classes(&mut r, 4); // A1, A2, B, X... use c3 as X
        r.add(Axiom::SubConj(c[0], c[1], c[2]));
        r.sub(c[3], c[0]);
        r.saturate();
        assert!(!r.is_subsumed(c[3], c[2]), "only one conjunct present");
        r.sub(c[3], c[1]);
        r.saturate();
        assert!(r.is_subsumed(c[3], c[2]), "both conjuncts present");
    }

    #[test]
    fn cr3_cr4_existential_round_trip() {
        // Contact ⊑ ∃hasCode.T90, ∃hasCode.Diabetes ⊑ DiabetesContact,
        // T90 ⊑ Diabetes  ⟹  Contact ⊑ DiabetesContact.
        let mut r = Reasoner::new();
        let contact = r.new_class();
        let t90 = r.new_class();
        let diabetes = r.new_class();
        let diabetes_contact = r.new_class();
        let has_code = r.new_role();
        r.add(Axiom::SubExists(contact, has_code, t90));
        r.add(Axiom::ExistsSub(has_code, diabetes, diabetes_contact));
        r.sub(t90, diabetes);
        r.saturate();
        assert!(r.is_subsumed(contact, diabetes_contact));
        assert!(!r.is_subsumed(t90, diabetes_contact));
    }

    #[test]
    fn role_hierarchy_propagates_existentials() {
        // X ⊑ ∃r.A, r ⊑ s, ∃s.A ⊑ B  ⟹  X ⊑ B.
        let mut re = Reasoner::new();
        let x = re.new_class();
        let a = re.new_class();
        let b = re.new_class();
        let r = re.new_role();
        let s = re.new_role();
        re.add(Axiom::SubRole(r, s));
        re.add(Axiom::SubExists(x, r, a));
        re.add(Axiom::ExistsSub(s, a, b));
        re.saturate();
        assert!(re.is_subsumed(x, b));
    }

    #[test]
    fn subsumees_inverse_of_superclasses() {
        let mut r = Reasoner::new();
        let c = classes(&mut r, 5);
        r.sub(c[0], c[4]);
        r.sub(c[1], c[4]);
        r.sub(c[2], c[1]);
        r.saturate();
        let subs = r.subsumees(c[4]);
        assert!(subs.contains(&c[0]) && subs.contains(&c[1]) && subs.contains(&c[2]));
        assert!(subs.contains(&c[4]));
        assert!(!subs.contains(&c[3]));
    }

    #[test]
    fn order_of_axioms_does_not_matter() {
        // CR4 must fire whether the edge or the sub arrives first.
        for flip in [false, true] {
            let mut r = Reasoner::new();
            let x = r.new_class();
            let y = r.new_class();
            let a = r.new_class();
            let b = r.new_class();
            let role = r.new_role();
            let axioms = [
                Axiom::SubExists(x, role, y),
                Axiom::Sub(y, a),
                Axiom::ExistsSub(role, a, b),
            ];
            if flip {
                for ax in axioms.iter().rev() {
                    r.add(*ax);
                }
            } else {
                for ax in axioms {
                    r.add(ax);
                }
            }
            r.saturate();
            assert!(r.is_subsumed(x, b), "flip={flip}");
        }
    }

    #[test]
    fn saturation_handles_deep_chains() {
        // Output size for a chain is Θ(n²) (every class subsumes its whole
        // suffix), so keep n modest here; the E10 bench measures scale.
        let mut r = Reasoner::new();
        let cs = classes(&mut r, 1_000);
        for w in cs.windows(2) {
            r.sub(w[0], w[1]);
        }
        r.saturate();
        assert!(r.is_subsumed(cs[0], cs[999]));
        assert_eq!(r.superclasses(cs[0]).len(), 1_000);
    }

    #[test]
    fn saturation_handles_wide_trees() {
        // 4000 leaves under 40 groups under one root: realistic code-
        // hierarchy shape; output is linear here.
        let mut r = Reasoner::new();
        let root = r.new_class();
        let groups = classes(&mut r, 40);
        for &g in &groups {
            r.sub(g, root);
        }
        let mut leaves = Vec::new();
        for i in 0..4_000 {
            let leaf = r.new_class();
            r.sub(leaf, groups[i % groups.len()]);
            leaves.push(leaf);
        }
        r.saturate();
        assert!(r.is_subsumed(leaves[0], root));
        assert_eq!(r.superclasses(leaves[7]).len(), 3);
    }

    #[test]
    #[should_panic(expected = "saturate")]
    fn querying_unsaturated_panics() {
        let mut r = Reasoner::new();
        let a = r.new_class();
        let b = r.new_class();
        r.sub(a, b);
        let _ = r.is_subsumed(a, b);
    }
}
