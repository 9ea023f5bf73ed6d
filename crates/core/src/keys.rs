//! Query-plan keys (Definition 6.1) and their distribution (§6).
//!
//! Attributes involved in encryption operations are clustered by the
//! equivalence classes of the *root* profile: attributes appearing
//! together in an equivalence set must share a key (they are compared
//! in encrypted form somewhere in the plan); all other encrypted
//! attributes get singleton keys. A key is distributed exactly to the
//! subjects in charge of encryption/decryption operations over its
//! attributes. A join that would compare a ciphertext side against a
//! plaintext one needs no exception: plan extension encrypts the
//! plaintext side below the join, by the join's assignee, so that
//! assignee holds the key by the same rule.

use crate::extend::ExtendedPlan;
use mpq_algebra::{AttrSet, Catalog, Operator, SubjectId};

/// One encryption key of the plan, covering a cluster of attributes.
#[derive(Clone, Debug)]
pub struct PlanKey {
    /// Key identifier (stable within the plan: index in
    /// [`KeyPlan::keys`]).
    pub id: u32,
    /// Attributes encrypted under this key.
    pub attrs: AttrSet,
    /// Subjects the key is distributed to (those performing
    /// encryption/decryption of these attributes).
    pub holders: Vec<SubjectId>,
}

/// Canonical identity of one Def. 6.1 cluster: its attribute set and
/// its holder set, both sorted.
///
/// Two plan keys with equal signatures describe the *same* trust
/// relationship — the same attributes compared under the same key,
/// decryptable by the same subjects — even when they come from
/// different queries (where [`PlanKey::id`] is merely the position in
/// that plan's [`KeyPlan`]). This is what makes key provisioning
/// *incremental* across the queries of a session: a session caches
/// generated key material by signature and re-provisions only clusters
/// whose signature it has not seen (`mpq-dist`'s `Session`).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClusterSig {
    /// Attributes of the cluster, ascending.
    pub attrs: Vec<mpq_algebra::AttrId>,
    /// Subjects holding the full key, ascending.
    pub holders: Vec<SubjectId>,
}

impl PlanKey {
    /// The cluster's canonical signature (see [`ClusterSig`]).
    pub fn cluster_sig(&self) -> ClusterSig {
        let mut attrs: Vec<mpq_algebra::AttrId> = self.attrs.iter().collect();
        attrs.sort_unstable();
        let mut holders = self.holders.clone();
        holders.sort_unstable();
        ClusterSig { attrs, holders }
    }
}

/// The key establishment for one extended plan (Def. 6.1).
#[derive(Clone, Debug, Default)]
pub struct KeyPlan {
    /// Keys, in deterministic order (clusters sorted by smallest
    /// attribute id).
    pub keys: Vec<PlanKey>,
}

impl KeyPlan {
    /// The key covering attribute `a`, if `a` is encrypted in the plan.
    pub fn key_for(&self, a: mpq_algebra::AttrId) -> Option<&PlanKey> {
        self.keys.iter().find(|k| k.attrs.contains(a))
    }

    /// Render as `k{attrs} → holders` lines (paper style).
    pub fn display(&self, catalog: &Catalog, subjects: &crate::subjects::Subjects) -> String {
        let mut out = String::new();
        for k in &self.keys {
            out.push_str(&format!(
                "k{} → {}\n",
                catalog.render_attrs(&k.attrs),
                subjects.render(&k.holders),
            ));
        }
        out
    }
}

/// Compute the keys for an extended plan (Def. 6.1): cluster the
/// encrypted attributes `A_k` by the root profile's equivalence sets,
/// then distribute each key to the subjects assigned encryption or
/// decryption operations touching its attributes.
pub fn plan_keys(ext: &ExtendedPlan) -> KeyPlan {
    let ak = &ext.encrypted_attrs;
    if ak.is_empty() {
        return KeyPlan::default();
    }
    let root_profile = &ext.profiles[ext.plan.root().index()];

    // Clusters: A = {A_k ∩ A_j | A_j ∈ R^≃_root} ∪ singletons.
    let mut clusters: Vec<AttrSet> = Vec::new();
    let mut covered = AttrSet::new();
    for class in root_profile.eq.classes() {
        let inter = ak.intersect(class);
        if !inter.is_empty() {
            covered.union_with(&inter);
            clusters.push(inter);
        }
    }
    for a in ak.difference(&covered).iter() {
        clusters.push(AttrSet::singleton(a));
    }
    clusters.sort_by_key(|c| c.iter().next().map(|a| a.0).unwrap_or(u32::MAX));

    // Distribution: subjects running encrypt/decrypt ops over the
    // cluster's attributes.
    let mut keys = Vec::with_capacity(clusters.len());
    for (i, attrs) in clusters.into_iter().enumerate() {
        let mut holders: Vec<SubjectId> = Vec::new();
        for id in ext.plan.postorder() {
            let touched: AttrSet = match &ext.plan.node(id).op {
                Operator::Encrypt { attrs: a } | Operator::Decrypt { attrs: a } => {
                    a.iter().copied().collect()
                }
                _ => continue,
            };
            if touched.intersects(&attrs) {
                let s = ext.assignment[&id];
                if !holders.contains(&s) {
                    holders.push(s);
                }
            }
        }
        holders.sort_unstable();
        keys.push(PlanKey {
            id: i as u32,
            attrs,
            holders,
        });
    }
    KeyPlan { keys }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::candidates;
    use crate::capability::CapabilityPolicy;
    use crate::extend::{minimally_extend, Assignment};
    use crate::fixtures::RunningExample;

    fn extended(
        ex: &RunningExample,
        sel: &str,
        join: &str,
        group: &str,
        having: &str,
    ) -> ExtendedPlan {
        let cands = candidates(
            &ex.plan,
            &ex.catalog,
            &ex.policy,
            &ex.subjects,
            &CapabilityPolicy::default(),
            false,
        );
        let mut a = Assignment::new();
        a.set(ex.node("select_d"), ex.subject(sel));
        a.set(ex.node("join"), ex.subject(join));
        a.set(ex.node("group"), ex.subject(group));
        a.set(ex.node("having"), ex.subject(having));
        minimally_extend(
            &ex.plan,
            &ex.catalog,
            &ex.policy,
            &ex.subjects,
            &cands,
            &a,
            Some(ex.subject("U")),
        )
        .unwrap()
    }

    /// §6: "for the query plan in Figure 7(a), A = {SC, P}, resulting
    /// in k_SC distributed to H and I, and k_P distributed to I and Y."
    #[test]
    fn fig7a_keys() {
        let ex = RunningExample::new();
        let e = extended(&ex, "H", "X", "X", "Y");
        let kp = plan_keys(&e);
        assert_eq!(kp.keys.len(), 2);
        let ksc = kp.key_for(ex.attr("S")).unwrap();
        assert_eq!(ksc.attrs, ex.attrs("SC"));
        assert_eq!(
            ex.subjects.render(&ksc.holders),
            "HI",
            "k_SC goes to H (encrypts S) and I (encrypts C)"
        );
        let kper = kp.key_for(ex.attr("P")).unwrap();
        assert_eq!(kper.attrs, ex.attrs("P"));
        assert_eq!(
            ex.subjects.render(&kper.holders),
            "IY",
            "k_P goes to I (encrypts P) and Y (decrypts avg(P))"
        );
    }

    /// §6: "For the query plan in Figure 7(b), A = {D, P}, resulting in
    /// k_D distributed to H, and k_P distributed to I and Y."
    #[test]
    fn fig7b_keys() {
        let ex = RunningExample::new();
        let e = extended(&ex, "H", "Z", "Z", "Y");
        let kp = plan_keys(&e);
        assert_eq!(kp.keys.len(), 2);
        let kd = kp.key_for(ex.attr("D")).unwrap();
        assert_eq!(kd.attrs, ex.attrs("D"));
        assert_eq!(ex.subjects.render(&kd.holders), "H");
        let kper = kp.key_for(ex.attr("P")).unwrap();
        assert_eq!(ex.subjects.render(&kper.holders), "IY");
    }

    /// Equivalent attributes share a key even when encrypted by
    /// different subjects; non-equivalent ones never share.
    #[test]
    fn clustering_follows_root_equivalences() {
        let ex = RunningExample::new();
        let e = extended(&ex, "H", "X", "X", "Y");
        let kp = plan_keys(&e);
        let ks = kp.key_for(ex.attr("S")).unwrap().id;
        let kc = kp.key_for(ex.attr("C")).unwrap().id;
        let kpr = kp.key_for(ex.attr("P")).unwrap().id;
        assert_eq!(ks, kc, "S ≃ C must share a key");
        assert_ne!(ks, kpr, "P is independent");
        // B and T are never encrypted: no keys.
        assert!(kp.key_for(ex.attr("B")).is_none());
        assert!(kp.key_for(ex.attr("T")).is_none());
    }

    /// A plan with no encryption yields no keys.
    #[test]
    fn no_encryption_no_keys() {
        let ex = RunningExample::new();
        let e = extended(&ex, "U", "U", "U", "U");
        let kp = plan_keys(&e);
        assert!(kp.keys.is_empty());
    }

    /// Cluster signatures identify the *trust relationship*, not the
    /// plan: equal across queries with the same clusters and holders,
    /// different as soon as either set changes — the property the
    /// session-level key cache keys on.
    #[test]
    fn cluster_sig_is_stable_across_queries_and_sensitive_to_holders() {
        let ex = RunningExample::new();
        let a = plan_keys(&extended(&ex, "H", "X", "X", "Y"));
        let b = plan_keys(&extended(&ex, "H", "X", "X", "Y"));
        assert_eq!(a.keys[0].cluster_sig(), b.keys[0].cluster_sig());
        assert_eq!(a.keys[1].cluster_sig(), b.keys[1].cluster_sig());
        assert_ne!(a.keys[0].cluster_sig(), a.keys[1].cluster_sig());
        // Fig. 7(b) clusters D (held by H alone) instead of SC (held
        // by H and I): both the attribute set and the holder set of
        // the first cluster change.
        let c = plan_keys(&extended(&ex, "H", "Z", "Z", "Y"));
        assert_ne!(a.keys[0].cluster_sig(), c.keys[0].cluster_sig());
        // k_P survives the reassignment with identical holders {I, Y}:
        // same signature, so a session would re-use its material.
        assert_eq!(
            a.key_for(ex.attr("P")).unwrap().cluster_sig(),
            c.key_for(ex.attr("P")).unwrap().cluster_sig()
        );
    }

    #[test]
    fn display_renders_holders() {
        let ex = RunningExample::new();
        let e = extended(&ex, "H", "X", "X", "Y");
        let kp = plan_keys(&e);
        let text = kp.display(&ex.catalog, &ex.subjects);
        assert!(text.contains("kSC → HI"), "{text}");
        assert!(text.contains("kP → IY"), "{text}");
    }
}
