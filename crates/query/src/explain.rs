//! Human-readable explanation of a compiled query: what the Static Query
//! Analyzer decided and why — the automaton (§3.1), the predicate classes
//! (§3.2), the granularity and `Te`/`Tt` split (§3.3/Theorem 5.1) — plus a
//! Graphviz DOT rendering of the FSA for documentation and debugging.

use crate::compile::{CompiledDisjunct, CompiledQuery, Granularity, Route};
use crate::QueryResult;
use cogra_events::{AttrId, TypeRegistry};
use std::fmt::Write as _;

/// Render a full plan report for a compiled query.
pub fn explain(query: &CompiledQuery, registry: &TypeRegistry) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "semantics:   {}", query.semantics.keyword());
    let _ = writeln!(
        out,
        "window:      WITHIN {} SLIDE {} (≤ {} windows per event)",
        query.window.within,
        query.window.slide,
        query.window.windows_per_event()
    );
    let _ = writeln!(
        out,
        "partitioning: [{}] (first {} form the output group)",
        query.partition_attrs.join(", "),
        query.group_prefix
    );
    let _ = writeln!(out, "reads: {}", reads(query, registry));
    let dropped = drops(query, registry);
    if !dropped.is_empty() {
        let _ = writeln!(
            out,
            "drops: {dropped} (binds nothing: dropped before any window)"
        );
    }
    let _ = writeln!(out, "granularity: {}", query.granularity());
    for (i, d) in query.disjuncts.iter().enumerate() {
        let _ = writeln!(out, "disjunct {i}:");
        explain_disjunct(&mut out, d, registry);
    }
    out
}

/// The plan's read-set ([`CompiledQuery::read_set`]) — its projection
/// list: what of an event it reads at all — as `Type{attr, …}` per type
/// that is read, in registry order.
pub fn reads(query: &CompiledQuery, registry: &TypeRegistry) -> String {
    per_type(registry, &query.read_set(registry))
}

/// What a disjunct keeps of a matched event: its stored projection
/// ([`CompiledDisjunct::stored`]) in the shape of [`reads`], `time only`
/// when no predicate on adjacent events reads a predecessor — and
/// `nothing` at the type granularity, which keeps no event at all.
pub fn stores(d: &CompiledDisjunct, registry: &TypeRegistry) -> String {
    let attrs = per_type(registry, &d.stored);
    match d.granularity {
        Granularity::Type => "nothing".to_string(),
        _ if attrs.is_empty() => "time only".to_string(),
        _ => attrs,
    }
}

/// The disjunct's compiled route ([`CompiledDisjunct::route`]) as
/// `Type → bound states, NOT matched negations` per type that routes to
/// anything, in registry order — `Type → filtered` where a local filter
/// decides it per event.
pub fn route(d: &CompiledDisjunct, registry: &TypeRegistry) -> String {
    let a = &d.automaton;
    let per_type: Vec<String> = registry
        .iter()
        .filter_map(|(type_id, schema)| {
            let to = match d.route(type_id) {
                Route::Nothing => return None,
                Route::Filtered => "filtered".to_string(),
                Route::Static((binds, negations)) => {
                    let states = binds.iter().map(|s| a.state(*s).name.clone());
                    let negated = negations
                        .iter()
                        .map(|n| format!("NOT {}", a.negated_var(*n).name));
                    states.chain(negated).collect::<Vec<_>>().join(", ")
                }
            };
            Some(format!("{} → {to}", schema.name()))
        })
        .collect();
    per_type.join("; ")
}

/// The types whose events the plan drops before any window: those whose
/// [`CompiledQuery::route`] is [`Route::Nothing`]. Comma-separated, in
/// registry order; empty when there is none.
pub fn drops(query: &CompiledQuery, registry: &TypeRegistry) -> String {
    let names: Vec<&str> = registry
        .iter()
        .filter(|(type_id, _)| query.route(*type_id) == Route::Nothing)
        .map(|(_, schema)| schema.name())
        .collect();
    names.join(", ")
}

/// Per-type attribute lists as `Type{attr, …}`, in registry order, a type
/// with an empty list left out.
fn per_type(registry: &TypeRegistry, lists: &[Vec<AttrId>]) -> String {
    let per_type: Vec<String> = registry
        .iter()
        .zip(lists)
        .filter(|(_, attrs)| !attrs.is_empty())
        .map(|((_, schema), attrs)| {
            let names: Vec<&str> = attrs.iter().map(|a| schema.attr_name(*a)).collect();
            format!("{}{{{}}}", schema.name(), names.join(", "))
        })
        .collect();
    per_type.join(", ")
}

fn explain_disjunct(out: &mut String, d: &CompiledDisjunct, registry: &TypeRegistry) {
    let a = &d.automaton;
    let _ = writeln!(
        out,
        "  states: {} (start {}, end {})",
        a.num_states(),
        a.state(a.start()).name,
        a.state(a.end()).name
    );
    for (sid, v) in a.states() {
        let preds: Vec<String> = a
            .preds(sid)
            .iter()
            .map(|e| {
                let mut s = a.state(e.from).name.clone();
                if !e.negations.is_empty() {
                    let negs: Vec<&str> = e
                        .negations
                        .iter()
                        .map(|n| a.negated_var(*n).name.as_str())
                        .collect();
                    let _ = write!(s, " [unless {}]", negs.join(", "));
                }
                s
            })
            .collect();
        let storage = match (d.granularity, d.event_grained[sid.index()]) {
            (Granularity::Pattern, _) => "pattern",
            (_, true) => "per event (Te)",
            (Granularity::Mixed, false) => "per type (Tt)",
            (_, false) => "per type",
        };
        let schema = registry.schema(v.type_id);
        let _ = writeln!(
            out,
            "    {} : {} ← predTypes {{{}}}, aggregates {storage}, {} local filter(s)",
            v.name,
            schema.name(),
            preds.join(", "),
            d.locals[sid.index()].len()
        );
    }
    for (nid, v) in a.negated_vars() {
        let _ = writeln!(
            out,
            "    NOT {} : {} ({} local filter(s))",
            v.name,
            v.event_type,
            d.neg_locals[nid.index()].len()
        );
    }
    let _ = writeln!(out, "  stores: {}", stores(d, registry));
    let _ = writeln!(out, "  route: {}", route(d, registry));
    if !d.adjacents.is_empty() {
        let _ = writeln!(out, "  predicates on adjacent events:");
        for adj in &d.adjacents {
            let pred = a.state(adj.pred);
            let succ = a.state(adj.succ);
            let _ = writeln!(
                out,
                "    {}.{} {} NEXT({}).{}",
                pred.name,
                registry.schema(pred.type_id).attr_name(adj.pred_attr),
                adj.op,
                succ.name,
                registry.schema(succ.type_id).attr_name(adj.succ_attr),
            );
        }
    }
}

/// Render the FSA of every disjunct as a Graphviz DOT digraph.
pub fn to_dot(query: &CompiledQuery) -> String {
    let mut out = String::from("digraph pattern {\n  rankdir=LR;\n");
    for (i, d) in query.disjuncts.iter().enumerate() {
        let a = &d.automaton;
        for (sid, v) in a.states() {
            let shape = if sid == a.end() {
                "doublecircle"
            } else {
                "circle"
            };
            let style = if d.event_grained[sid.index()] {
                ", style=filled, fillcolor=lightyellow"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  d{i}_{} [label=\"{}\", shape={shape}{style}];",
                sid.index(),
                v.name
            );
        }
        let _ = writeln!(
            out,
            "  d{i}_start [shape=point]; d{i}_start -> d{i}_{};",
            a.start().index()
        );
        for (sid, _) in a.states() {
            for e in a.preds(sid) {
                let label = if e.negations.is_empty() {
                    String::new()
                } else {
                    let negs: Vec<&str> = e
                        .negations
                        .iter()
                        .map(|n| a.negated_var(*n).name.as_str())
                        .collect();
                    format!(" [label=\"¬{}\"]", negs.join(",¬"))
                };
                let _ = writeln!(
                    out,
                    "  d{i}_{} -> d{i}_{}{label};",
                    e.from.index(),
                    sid.index()
                );
            }
        }
    }
    out.push_str("}\n");
    out
}

/// Parse, compile and explain in one step.
pub fn explain_text(query_text: &str, registry: &TypeRegistry) -> QueryResult<String> {
    let q = crate::parse(query_text)?;
    let compiled = crate::compile(&q, registry)?;
    Ok(explain(&compiled, registry))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cogra_events::ValueKind;

    fn registry() -> TypeRegistry {
        let mut r = TypeRegistry::new();
        r.register_type(
            "Stock",
            vec![("company", ValueKind::Int), ("price", ValueKind::Float)],
        );
        for t in ["A", "B", "C"] {
            r.register_type(t, vec![("v", ValueKind::Int)]);
        }
        r
    }

    fn compiled(text: &str) -> CompiledQuery {
        crate::compile(&crate::parse(text).unwrap(), &registry()).unwrap()
    }

    #[test]
    fn explain_reports_granularity_and_te_split() {
        let cq = compiled(
            "RETURN company, COUNT(*) PATTERN SEQ(Stock A+, Stock B+) \
             SEMANTICS ANY WHERE [company] AND A.price > NEXT(A).price \
             GROUP-BY company WITHIN 600 SLIDE 10",
        );
        let report = explain(&cq, &registry());
        assert!(report.contains("granularity: mixed"), "{report}");
        assert!(report.contains("A : Stock"), "{report}");
        assert!(report.contains("per event (Te)"), "{report}");
        assert!(report.contains("per type (Tt)"), "{report}");
        assert!(report.contains("A.price > NEXT(A).price"), "{report}");
        assert!(report.contains("partitioning: [company]"), "{report}");
    }

    #[test]
    fn explain_lists_what_each_type_is_read_for() {
        let q3 = |adjacent: &str| {
            let text = format!(
                "RETURN company, COUNT(*) PATTERN SEQ(Stock A+, Stock B+) SEMANTICS ANY \
                 WHERE [company]{adjacent} GROUP-BY company WITHIN 600 SLIDE 10"
            );
            explain(&compiled(&text), &registry())
        };
        let report = q3("");
        assert!(report.contains("reads: Stock{company}\n"), "{report}");
        let report = q3(" AND A.price > NEXT(A).price");
        assert!(
            report.contains("reads: Stock{company, price}\n"),
            "{report}"
        );
        // Several types, in registry order; one nothing reads is left out.
        let report = explain(
            &compiled(
                "RETURN COUNT(*), SUM(B.v) PATTERN SEQ(A, B) SEMANTICS ANY WITHIN 10 SLIDE 5",
            ),
            &registry(),
        );
        assert!(report.contains("reads: B{v}\n"), "{report}");
    }

    #[test]
    fn explain_says_what_a_matched_event_is_kept_as() {
        let stores = |text: &str| {
            let report = explain(&compiled(text), &registry());
            let lines = report.lines().filter(|l| l.starts_with("  stores: "));
            lines.map(str::to_string).collect::<Vec<_>>()
        };
        let q = |semantics: &str, adjacent: &str| {
            format!(
                "RETURN company, COUNT(*) PATTERN SEQ(Stock A+, Stock B+) SEMANTICS {semantics} \
                 WHERE [company]{adjacent} GROUP-BY company WITHIN 600 SLIDE 10"
            )
        };
        let adjacent = " AND A.price > NEXT(A).price";
        assert_eq!(stores(&q("ANY", adjacent)), ["  stores: Stock{price}"]);
        assert_eq!(stores(&q("NEXT", adjacent)), ["  stores: Stock{price}"]);
        assert_eq!(stores(&q("CONT", "")), ["  stores: time only"]);
        assert_eq!(stores(&q("ANY", "")), ["  stores: nothing"]);
        // The successor side is read off the arriving event, never stored;
        // one line per disjunct.
        assert_eq!(
            stores(
                "RETURN COUNT(*) PATTERN OR(SEQ(A+, B), C+) SEMANTICS NEXT \
                 WHERE A.v < B.v WITHIN 10 SLIDE 5"
            ),
            ["  stores: A{v}", "  stores: time only"]
        );
    }

    #[test]
    fn explain_prints_each_types_compiled_route() {
        let lines = |text: &str, prefix: &str| {
            let report = explain(&compiled(text), &registry());
            let lines = report.lines().filter(|l| l.starts_with(prefix));
            lines.map(str::to_string).collect::<Vec<_>>()
        };
        let routes = |text: &str| lines(text, "  route: ");
        let drops = |text: &str| lines(text, "drops: ");
        let stock = "RETURN company, COUNT(*) PATTERN SEQ(Stock A+, Stock B+) SEMANTICS ANY \
                     WHERE [company] GROUP-BY company WITHIN 600 SLIDE 10";
        assert_eq!(routes(stock), ["  route: Stock → A, B"]);
        // A and B are the only types the plan binds: the rest are dropped
        // before any window.
        assert_eq!(
            drops("RETURN COUNT(*) PATTERN SEQ(A+, B) SEMANTICS ANY WITHIN 10 SLIDE 5"),
            ["drops: Stock, C (binds nothing: dropped before any window)"]
        );
        // A negated variable routes too; a local filter on a type's state or
        // negated variable leaves its route to the event.
        let negated = |filter: &str| {
            format!(
                "RETURN COUNT(*) PATTERN SEQ(A+, NOT C, B) SEMANTICS ANY{filter} \
                 WITHIN 10 SLIDE 5"
            )
        };
        assert_eq!(routes(&negated("")), ["  route: A → A; B → B; C → NOT C"]);
        assert_eq!(
            routes(&negated(" WHERE C.v < 5")),
            ["  route: A → A; B → B; C → filtered"]
        );
        assert_eq!(
            routes(&negated(" WHERE A.v > 2")),
            ["  route: A → filtered; B → B; C → NOT C"]
        );
        assert_eq!(
            drops(&negated("")),
            ["drops: Stock (binds nothing: dropped before any window)"]
        );
        // Under CONT an event that binds nothing still breaks trends: it is
        // routed, and nothing is dropped. One route line per disjunct.
        let cont = "RETURN COUNT(*) PATTERN OR(SEQ(A+, B), C+) SEMANTICS CONT WITHIN 10 SLIDE 5";
        assert_eq!(routes(cont), ["  route: A → A; B → B", "  route: C → C"]);
        assert!(drops(cont).is_empty());
    }

    #[test]
    fn explain_pattern_granularity_under_next() {
        let cq = compiled(
            "RETURN COUNT(*) PATTERN SEQ(A, (SEQ(B, C))+ ) SEMANTICS NEXT WITHIN 10 SLIDE 5",
        );
        let report = explain(&cq, &registry());
        assert!(report.contains("granularity: pattern"), "{report}");
        assert!(report.contains("predTypes {C, A}"), "{report}");
    }

    #[test]
    fn dot_contains_states_edges_and_negations() {
        let cq =
            compiled("RETURN COUNT(*) PATTERN SEQ(A+, NOT C, B) SEMANTICS ANY WITHIN 10 SLIDE 5");
        let dot = to_dot(&cq);
        assert!(dot.starts_with("digraph pattern {"));
        assert!(dot.contains("label=\"A\""));
        assert!(dot.contains("doublecircle")); // end state B
        assert!(dot.contains("¬C"), "{dot}");
        assert!(dot.contains("d0_start"));
    }

    #[test]
    fn dot_marks_event_grained_states() {
        let cq = compiled(
            "RETURN COUNT(*) PATTERN A+ SEMANTICS ANY WHERE A.v < NEXT(A).v WITHIN 10 SLIDE 5",
        );
        let dot = to_dot(&cq);
        assert!(
            dot.contains("lightyellow"),
            "Te states are highlighted: {dot}"
        );
    }

    #[test]
    fn explain_text_end_to_end() {
        let report = explain_text(
            "RETURN COUNT(*) PATTERN OR(A+, SEQ(B, C)) SEMANTICS ANY WITHIN 10 SLIDE 5",
            &registry(),
        )
        .unwrap();
        assert!(report.contains("disjunct 0:"));
        assert!(report.contains("disjunct 1:"));
    }
}
