//! Sub-query dispatch (§6, Fig. 8).
//!
//! The extended plan is cut into *regions*: maximal connected groups of
//! nodes executed by the same subject (leaves belong to the data
//! authority storing the base relation). Each region becomes a
//! sub-query; a region referencing another region's output embeds a
//! `⟦req_S⟧` placeholder, mirroring the paper's `JreqXK` notation. The
//! communication to each subject carries its sub-query and the keys it
//! needs, signed by the user and encrypted under the recipient's public
//! key — `[[q_S, keys]_priU]_pubS`. The actual cryptographic envelope
//! is realized in `mpq-dist`; this module produces the structure and
//! the paper-style notation.

use crate::extend::ExtendedPlan;
use crate::keys::KeyPlan;
use crate::subjects::Subjects;
use mpq_algebra::{AttrId, AttrSet, Catalog, NodeId, Operator, QueryPlan, SubjectId};
use std::collections::HashMap;

/// One sub-query to be executed by one subject.
#[derive(Clone, Debug)]
pub struct SubQuery {
    /// Executing subject.
    pub subject: SubjectId,
    /// Region nodes (ids in the extended plan), bottom-up.
    pub nodes: Vec<NodeId>,
    /// Topmost node of the region (its output feeds the parent region,
    /// or the user if this is the root region).
    pub root: NodeId,
    /// Indices (into [`Dispatch::requests`]) of the regions whose
    /// results this sub-query consumes.
    pub children: Vec<usize>,
    /// Key ids (into [`KeyPlan::keys`]) communicated with the request.
    pub keys: Vec<u32>,
    /// Rendered pseudo-SQL, Fig. 8 style.
    pub sql: String,
}

/// A dispatched query: one request per region.
#[derive(Clone, Debug)]
pub struct Dispatch {
    /// All requests; children precede parents.
    pub requests: Vec<SubQuery>,
    /// Index of the root request (executed last, returns to the user).
    pub root_request: usize,
}

impl Dispatch {
    /// The paper's envelope notation for request `i`:
    /// `[[q_S,(attrs,k)]priU]pubS`.
    pub fn envelope_notation(
        &self,
        i: usize,
        user: SubjectId,
        subjects: &Subjects,
        catalog: &Catalog,
        keys: &KeyPlan,
    ) -> String {
        let req = &self.requests[i];
        let s = subjects.name(req.subject);
        let key_part: Vec<String> = req
            .keys
            .iter()
            .map(|&k| {
                let key = &keys.keys[k as usize];
                format!(
                    "({},k{})",
                    catalog.render_attrs(&key.attrs),
                    catalog.render_attrs(&key.attrs)
                )
            })
            .collect();
        let keys_str = if key_part.is_empty() {
            "-".to_string()
        } else {
            key_part.concat()
        };
        format!("[[q{s},{keys_str}]pri{}]pub{s}", subjects.name(user))
    }
}

/// One region of the Fig. 8 cut: a maximal connected group of nodes
/// executed by one subject — what one signed sub-query `q_S` covers,
/// and what that subject runs as one pipeline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Region {
    /// Executing subject.
    pub subject: SubjectId,
    /// Topmost node; only its output leaves the region.
    pub root: NodeId,
    /// The node consuming `root`'s output (`None`: `root` is the plan
    /// root and its output is the user's result).
    pub parent: Option<NodeId>,
    /// Member nodes, bottom-up.
    pub nodes: Vec<NodeId>,
    /// Roots of the regions whose outputs the members consume — the
    /// tables that must reach `subject` before the region can run —
    /// in the order the top-down walk meets them.
    pub operands: Vec<NodeId>,
}

/// The cut itself, a function of `(plan, assignment)` only: a node
/// joins its parent's region when both have the same assignee and
/// roots a new one otherwise. Regions come top-down — `[0]` holds the
/// plan root and every region precedes the ones it consumes — so the
/// reverse order runs producers first. `Err` names a node without an
/// assignee.
pub fn regions(
    plan: &QueryPlan,
    assignment: &HashMap<NodeId, SubjectId>,
) -> Result<Vec<Region>, NodeId> {
    let parents = plan.parents();
    let mut region_of = vec![0usize; plan.len()];
    let mut cut: Vec<Region> = Vec::new();
    for &id in plan.postorder().iter().rev() {
        let subject = *assignment.get(&id).ok_or(id)?;
        let parent = parents[id.index()];
        let region = match parent {
            Some(p) if assignment[&p] == subject => region_of[p.index()],
            _ => {
                if let Some(p) = parent {
                    cut[region_of[p.index()]].operands.push(id);
                }
                cut.push(Region {
                    subject,
                    root: id,
                    parent,
                    nodes: Vec::new(),
                    operands: Vec::new(),
                });
                cut.len() - 1
            }
        };
        region_of[id.index()] = region;
        cut[region].nodes.push(id);
    }
    for region in &mut cut {
        region.nodes.reverse();
    }
    Ok(cut)
}

/// Cut the extended plan into per-subject regions and render each as a
/// sub-query (Fig. 8). A request names the requests it consumes by
/// index (`⟦req#N⟧`), so the subjects are not read.
pub fn dispatch(
    ext: &ExtendedPlan,
    keys: &KeyPlan,
    catalog: &Catalog,
    _subjects: &Subjects,
) -> Dispatch {
    let plan = &ext.plan;
    let parents = plan.parents();
    let schemas = plan.schemas();
    let cut = regions(plan, &ext.assignment).expect("an extended plan assigns every node");
    let region_of: HashMap<NodeId, usize> = cut
        .iter()
        .enumerate()
        .flat_map(|(r, region)| region.nodes.iter().map(move |&id| (id, r)))
        .collect();

    // Emit requests children-first: deeper region roots come earlier.
    let mut emit_order: Vec<usize> = (0..cut.len()).collect();
    emit_order.sort_by_key(|&r| std::cmp::Reverse(depth(&parents, cut[r].root)));
    let mut index_of: HashMap<usize, usize> = HashMap::new();
    let mut requests = Vec::with_capacity(cut.len());
    for &r in &emit_order {
        let region = &cut[r];
        // Keys whose attributes some encrypt/decrypt node of the
        // region touches.
        let mut region_keys: Vec<u32> = Vec::new();
        for &id in &region.nodes {
            let touched: AttrSet = match &plan.node(id).op {
                Operator::Encrypt { attrs } | Operator::Decrypt { attrs } => {
                    attrs.iter().copied().collect()
                }
                _ => continue,
            };
            for k in &keys.keys {
                if k.attrs.intersects(&touched) && !region_keys.contains(&k.id) {
                    region_keys.push(k.id);
                }
            }
        }
        let renderer = Renderer {
            plan,
            schemas: &schemas,
            catalog,
            keys,
            region_of: &region_of,
            region: r,
        };
        let sql = renderer.node(region.root).render();
        let children = region
            .operands
            .iter()
            .map(|operand| index_of[&region_of[operand]])
            .collect();
        index_of.insert(r, requests.len());
        requests.push(SubQuery {
            subject: region.subject,
            nodes: region.nodes.clone(),
            root: region.root,
            children,
            keys: region_keys,
            sql,
        });
    }
    Dispatch {
        // `regions` puts the plan root's region first.
        root_request: index_of[&0],
        requests,
    }
}

fn depth(parents: &[Option<NodeId>], mut id: NodeId) -> usize {
    let mut d = 0;
    while let Some(p) = parents[id.index()] {
        d += 1;
        id = p;
    }
    d
}

// ---------------------------------------------------------------------------
// Pseudo-SQL rendering (display only; execution uses the plan directly)
// ---------------------------------------------------------------------------

struct QueryParts {
    select: Vec<String>,
    from: String,
    wheres: Vec<String>,
    group_by: Vec<String>,
    having: Vec<String>,
    tail: Vec<String>,
}

impl QueryParts {
    fn leaf(from: String, cols: Vec<String>) -> QueryParts {
        QueryParts {
            select: cols,
            from,
            wheres: Vec::new(),
            group_by: Vec::new(),
            having: Vec::new(),
            tail: Vec::new(),
        }
    }

    fn render(&self) -> String {
        let mut s = format!("select {} from {}", self.select.join(", "), self.from);
        if !self.wheres.is_empty() {
            s.push_str(&format!(" where {}", self.wheres.join(" and ")));
        }
        if !self.group_by.is_empty() {
            s.push_str(&format!(" group by {}", self.group_by.join(", ")));
        }
        if !self.having.is_empty() {
            s.push_str(&format!(" having {}", self.having.join(" and ")));
        }
        for t in &self.tail {
            s.push(' ');
            s.push_str(t);
        }
        s
    }

    /// The parts as a derived table when they group: what a clause
    /// added above a GROUP BY stands on.
    fn ungrouped(self) -> QueryParts {
        if self.group_by.is_empty() {
            return self;
        }
        let cols = self.select.iter().map(|c| strip_alias(c)).collect();
        QueryParts::leaf(format!("({})", self.render()), cols)
    }
}

fn strip_alias(item: &str) -> String {
    match item.rsplit_once(" as ") {
        Some((_, alias)) => alias.to_string(),
        None => item.to_string(),
    }
}

fn key_name(keys: &KeyPlan, catalog: &Catalog, a: AttrId) -> String {
    match keys.key_for(a) {
        Some(k) => format!("k{}", catalog.render_attrs(&k.attrs)),
        None => "k?".to_string(),
    }
}

/// Renders one region as a sub-query, Fig. 8 style: the plan with its
/// schemas (computed once per [`dispatch`]), the catalog and key plan
/// the text names, and the region each node belongs to — a node outside
/// `region` renders as the placeholder of the request that produces it.
struct Renderer<'a> {
    plan: &'a QueryPlan,
    schemas: &'a [AttrSet],
    catalog: &'a Catalog,
    keys: &'a KeyPlan,
    region_of: &'a HashMap<NodeId, usize>,
    region: usize,
}

impl Renderer<'_> {
    fn names(&self, attrs: impl IntoIterator<Item = AttrId>) -> Vec<String> {
        let name = |a| self.catalog.attr_name(a).to_string();
        attrs.into_iter().map(name).collect()
    }

    /// Child `k` of `id`, rendered.
    fn child(&self, id: NodeId, k: usize) -> QueryParts {
        self.node(self.plan.node(id).children[k])
    }

    fn node(&self, id: NodeId) -> QueryParts {
        let owner = self.region_of[&id];
        if owner != self.region {
            let cols = self.names(self.schemas[id.index()].iter());
            return QueryParts::leaf(format!("⟦req#{owner}⟧"), cols);
        }
        let catalog = self.catalog;
        match &self.plan.node(id).op {
            Operator::Base { rel, attrs } => {
                QueryParts::leaf(catalog.rel(*rel).name.clone(), self.names(attrs.clone()))
            }
            Operator::Project { attrs } => {
                let mut parts = self.child(id, 0);
                let keep = self.names(attrs.clone());
                parts.select.retain(|c| keep.contains(&strip_alias(c)));
                parts
            }
            Operator::Select { pred } => {
                let mut parts = self.child(id, 0).ungrouped();
                parts.wheres.push(pred.display(catalog).to_string());
                parts
            }
            Operator::Having { pred } => {
                let mut parts = self.child(id, 0);
                // The GROUP BY may sit below spliced Decrypt/Encrypt nodes
                // (and possibly in another region); its aggregate list is
                // still what AggRefs in the predicate refer to.
                let scope = self.plan.agg_scope(id).unwrap_or_default();
                let rendered = scope.resolve(pred).display(catalog).to_string();
                if parts.group_by.is_empty() {
                    // Child group-by sits in another region; filter locally.
                    parts.wheres.push(rendered);
                } else {
                    parts.having.push(rendered);
                }
                parts
            }
            op @ (Operator::Product | Operator::Join { .. }) => {
                let (l, r) = (self.child(id, 0).ungrouped(), self.child(id, 1).ungrouped());
                let from = match op {
                    Operator::Join { on, .. } => {
                        let conds: Vec<String> = on
                            .iter()
                            .map(|(a, op, b)| {
                                format!("{}{}{}", catalog.attr_name(*a), op, catalog.attr_name(*b))
                            })
                            .collect();
                        format!("{} join {} on {}", l.from, r.from, conds.join(" and "))
                    }
                    _ => format!("{}, {}", l.from, r.from),
                };
                let mut parts = QueryParts::leaf(from, l.select);
                parts.select.extend(r.select);
                parts.wheres = l.wheres;
                parts.wheres.extend(r.wheres);
                parts
            }
            Operator::GroupBy { keys: gk, aggs } => {
                let mut parts = self.child(id, 0).ungrouped();
                parts.select = self.names(gk.clone());
                for ag in aggs {
                    parts.select.push(format!(
                        "{}({}) as {}",
                        ag.func,
                        ag.input.display(catalog),
                        catalog.attr_name(ag.output)
                    ));
                }
                parts.group_by = self.names(gk.clone());
                parts
            }
            Operator::Udf {
                name,
                inputs,
                output,
                ..
            } => {
                let mut parts = self.child(id, 0);
                let args = self.names(inputs.clone());
                let output = catalog.attr_name(*output);
                let rendered = format!("{name}({}) as {output}", args.join(","));
                parts.select.retain(|c| {
                    let base = strip_alias(c);
                    !args.contains(&base) && base != output
                });
                parts.select.push(rendered);
                parts
            }
            Operator::Encrypt { attrs } => self.crypto("encrypt", attrs, self.child(id, 0)),
            Operator::Decrypt { attrs } => {
                self.crypto("decrypt", attrs, self.child(id, 0).ungrouped())
            }
            Operator::Sort { .. } => {
                let mut parts = self.child(id, 0);
                parts.tail.push("order by …".to_string());
                parts
            }
            Operator::Limit { n } => {
                let mut parts = self.child(id, 0);
                parts.tail.push(format!("limit {n}"));
                parts
            }
        }
    }

    /// `parts` with each selected column among `attrs` passed through
    /// `func` (`encrypt` / `decrypt`) under its key.
    fn crypto(&self, func: &str, attrs: &[AttrId], mut parts: QueryParts) -> QueryParts {
        for a in attrs {
            let name = self.catalog.attr_name(*a).to_string();
            let k = key_name(self.keys, self.catalog, *a);
            for item in &mut parts.select {
                if strip_alias(item) == name {
                    *item = format!("{func}({name},{k}) as {name}");
                }
            }
        }
        parts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidates::candidates;
    use crate::capability::CapabilityPolicy;
    use crate::extend::{minimally_extend, Assignment};
    use crate::fixtures::RunningExample;
    use crate::keys::plan_keys;

    fn fig7a(ex: &RunningExample) -> (ExtendedPlan, KeyPlan) {
        let cands = candidates(
            &ex.plan,
            &ex.catalog,
            &ex.policy,
            &ex.subjects,
            &CapabilityPolicy::default(),
            false,
        );
        let mut a = Assignment::new();
        a.set(ex.node("select_d"), ex.subject("H"));
        a.set(ex.node("join"), ex.subject("X"));
        a.set(ex.node("group"), ex.subject("X"));
        a.set(ex.node("having"), ex.subject("Y"));
        let e = minimally_extend(
            &ex.plan,
            &ex.catalog,
            &ex.policy,
            &ex.subjects,
            &cands,
            &a,
            Some(ex.subject("U")),
        )
        .unwrap();
        let k = plan_keys(&e);
        (e, k)
    }

    /// Fig. 8: four requests — Y (root), X, H, I.
    #[test]
    fn fig8_regions() {
        let ex = RunningExample::new();
        let (e, k) = fig7a(&ex);
        let d = dispatch(&e, &k, &ex.catalog, &ex.subjects);
        assert_eq!(d.requests.len(), 4);
        let subjects: Vec<&str> = d
            .requests
            .iter()
            .map(|r| ex.subjects.name(r.subject))
            .collect();
        assert!(subjects.contains(&"Y"));
        assert!(subjects.contains(&"X"));
        assert!(subjects.contains(&"H"));
        assert!(subjects.contains(&"I"));
        // Root request belongs to Y and consumes X's request.
        let root = &d.requests[d.root_request];
        assert_eq!(ex.subjects.name(root.subject), "Y");
        assert_eq!(root.children.len(), 1);
        let x_req = &d.requests[root.children[0]];
        assert_eq!(ex.subjects.name(x_req.subject), "X");
        assert_eq!(x_req.children.len(), 2, "X consumes H's and I's results");
    }

    /// Fig. 8: keys accompany the right requests — Y gets k_P, H gets
    /// k_SC, I gets both, X gets none.
    #[test]
    fn fig8_key_distribution_in_requests() {
        let ex = RunningExample::new();
        let (e, k) = fig7a(&ex);
        let d = dispatch(&e, &k, &ex.catalog, &ex.subjects);
        let by_name = |n: &str| {
            d.requests
                .iter()
                .find(|r| ex.subjects.name(r.subject) == n)
                .unwrap()
        };
        let key_attrs = |req: &SubQuery| -> Vec<String> {
            req.keys
                .iter()
                .map(|&i| ex.catalog.render_attrs(&k.keys[i as usize].attrs))
                .collect()
        };
        assert_eq!(key_attrs(by_name("Y")), vec!["P"]);
        assert_eq!(key_attrs(by_name("H")), vec!["SC"]);
        let mut i_keys = key_attrs(by_name("I"));
        i_keys.sort();
        assert_eq!(i_keys, vec!["P", "SC"]);
        assert!(key_attrs(by_name("X")).is_empty());
    }

    /// Fig. 8: the rendered sub-queries carry the encrypt/decrypt calls.
    #[test]
    fn fig8_rendered_subqueries() {
        let ex = RunningExample::new();
        let (e, k) = fig7a(&ex);
        let d = dispatch(&e, &k, &ex.catalog, &ex.subjects);
        let sql_of = |n: &str| {
            d.requests
                .iter()
                .find(|r| ex.subjects.name(r.subject) == n)
                .unwrap()
                .sql
                .clone()
        };
        let h = sql_of("H");
        assert!(h.contains("encrypt(S,kSC)"), "{h}");
        assert!(h.contains("from Hosp"), "{h}");
        assert!(h.contains("where (D = 'stroke')"), "{h}");
        let i = sql_of("I");
        assert!(i.contains("encrypt(C,kSC)"), "{i}");
        assert!(i.contains("encrypt(P,kP)"), "{i}");
        let x = sql_of("X");
        assert!(x.contains("avg(P)"), "{x}");
        assert!(x.contains("group by T"), "{x}");
        assert!(x.contains("join"), "{x}");
        let y = sql_of("Y");
        assert!(y.contains("decrypt(P,kP)"), "{y}");
        // The HAVING's GROUP BY sits below a spliced Decrypt (and in
        // another region): the AggRef must still resolve to its output
        // column, never leak as an `agg#N` placeholder.
        assert!(!y.contains("agg#"), "{y}");
        assert!(y.contains("(P > 100.00)"), "{y}");
    }

    /// Attribute names go where a column is printed and nowhere else:
    /// a literal or a `LIKE` pattern that *looks* like an attribute id
    /// is the user's text, and reaches the plan dump and the sub-query
    /// sealed into the signed request verbatim.
    #[test]
    fn literals_that_look_like_attribute_ids_are_rendered_verbatim() {
        use mpq_algebra::{Expr, Operator, QueryPlan, Value};
        let ex = RunningExample::new();
        let cat = &ex.catalog;
        let attr = |n| cat.attr(n).unwrap();
        let hosp = cat.relation("Hosp").unwrap().rel;
        let mut plan = QueryPlan::new();
        let base = plan.add_base(hosp, vec![attr("S"), attr("D"), attr("T")]);
        let like = Expr::Like {
            expr: Box::new(Expr::Col(attr("T"))),
            pattern: "%a2%".into(),
            negated: false,
        };
        let pred = Expr::And(vec![Expr::col_eq(attr("D"), Value::str("a1")), like]);
        let select = plan.add(Operator::Select { pred }, vec![base]);
        let rendered = "((D = 'a1') AND T LIKE '%a2%')";
        assert!(
            plan.display(cat).contains(rendered),
            "{}",
            plan.display(cat)
        );

        let policy = CapabilityPolicy::default();
        let cands = candidates(&plan, cat, &ex.policy, &ex.subjects, &policy, false);
        let mut a = Assignment::new();
        a.set(select, ex.subject("H"));
        let user = Some(ex.subject("U"));
        let e = minimally_extend(&plan, cat, &ex.policy, &ex.subjects, &cands, &a, user).unwrap();
        let d = dispatch(&e, &plan_keys(&e), cat, &ex.subjects);
        let h = d.requests.iter().find(|r| r.subject == ex.subject("H"));
        let sql = &h.expect("H filters its own relation").sql;
        assert!(sql.contains(&format!("where {rendered}")), "{sql}");
    }

    /// Envelope notation matches the paper's `[[q_S,(a,k)]priU]pubS`.
    #[test]
    fn envelope_notation() {
        let ex = RunningExample::new();
        let (e, k) = fig7a(&ex);
        let d = dispatch(&e, &k, &ex.catalog, &ex.subjects);
        let notation = d.envelope_notation(
            d.root_request,
            ex.subject("U"),
            &ex.subjects,
            &ex.catalog,
            &k,
        );
        assert_eq!(notation, "[[qY,(P,kP)]priU]pubY");
    }

    /// A single-subject assignment yields a single request.
    #[test]
    fn single_region_when_one_subject() {
        let ex = RunningExample::new();
        let cands = candidates(
            &ex.plan,
            &ex.catalog,
            &ex.policy,
            &ex.subjects,
            &CapabilityPolicy::default(),
            false,
        );
        let mut a = Assignment::new();
        for n in ex.operations() {
            a.set(n, ex.subject("U"));
        }
        let e = minimally_extend(
            &ex.plan,
            &ex.catalog,
            &ex.policy,
            &ex.subjects,
            &cands,
            &a,
            Some(ex.subject("U")),
        )
        .unwrap();
        let k = plan_keys(&e);
        let d = dispatch(&e, &k, &ex.catalog, &ex.subjects);
        // Leaves stay with H and I; U executes everything else.
        assert_eq!(d.requests.len(), 3);
    }
}
