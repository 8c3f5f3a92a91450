//! Expressive power of the event aggregation approaches (Table 9).
//!
//! | Approach | Kleene | ANY | NEXT | CONT | adjacent θ | negation | online |
//! |----------|--------|-----|------|------|------------|----------|--------|
//! | Flink    | –¹     | +   | –    | +    | +          | +        | –      |
//! | SASE     | +      | +   | +    | +    | +          | +        | –      |
//! | GRETA    | +      | +   | –    | –    | +          | +        | +      |
//! | A-Seq    | –¹     | +   | –    | –    | –          | –²       | +      |
//! | COGRA    | +      | +   | +    | +    | +          | +        | +      |
//!
//! ¹ Kleene closure simulated by flattening into fixed-length sequence
//! queries (§9.1).
//! ² Not a Table 9 column: A-Seq's prefix counters have no place for a
//! negated sub-pattern, so this re-implementation refuses one.
//!
//! A row lives on the window algorithm that has it
//! ([`WindowAlgo::TABLE9`](crate::WindowAlgo::TABLE9)), and one step
//! enforces it for every engine: [`Router::admit`](crate::Router::admit).

use cogra_query::{CompiledQuery, Semantics};

/// Capability flags of one engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    /// Native Kleene closure (true) or flattening simulation (false).
    pub native_kleene: bool,
    /// Skip-till-any-match.
    pub any: bool,
    /// Skip-till-next-match.
    pub next: bool,
    /// Contiguous.
    pub cont: bool,
    /// Predicates on adjacent events beyond equivalence predicates.
    pub adjacent_predicates: bool,
    /// Negated sub-patterns.
    pub negation: bool,
    /// Online trend aggregation (no trend construction step).
    pub online: bool,
}

impl Capabilities {
    /// Table 9 row for COGRA.
    pub const COGRA: Capabilities = Capabilities {
        native_kleene: true,
        any: true,
        next: true,
        cont: true,
        adjacent_predicates: true,
        negation: true,
        online: true,
    };

    /// Table 9 row for SASE.
    pub const SASE: Capabilities = Capabilities {
        native_kleene: true,
        any: true,
        next: true,
        cont: true,
        adjacent_predicates: true,
        negation: true,
        online: false,
    };

    /// Table 9 row for GRETA.
    pub const GRETA: Capabilities = Capabilities {
        native_kleene: true,
        any: true,
        next: false,
        cont: false,
        adjacent_predicates: true,
        negation: true,
        online: true,
    };

    /// Table 9 row for A-Seq.
    pub const ASEQ: Capabilities = Capabilities {
        native_kleene: false,
        any: true,
        next: false,
        cont: false,
        adjacent_predicates: false,
        negation: false,
        online: true,
    };

    /// Table 9 row for Flink.
    pub const FLINK: Capabilities = Capabilities {
        native_kleene: false,
        any: true,
        next: false,
        cont: true,
        adjacent_predicates: true,
        negation: true,
        online: false,
    };

    /// The oracle supports every query feature (it enumerates trends by
    /// the definitions, at exponential cost).
    pub const ORACLE: Capabilities = Capabilities {
        native_kleene: true,
        any: true,
        next: true,
        cont: true,
        adjacent_predicates: true,
        negation: true,
        online: false,
    };

    /// Whether this engine supports `query`; `Err` names the missing
    /// feature.
    pub fn supports(&self, query: &CompiledQuery) -> Result<(), Unsupported> {
        match query.semantics {
            Semantics::Any if !self.any => return Err(Unsupported("skip-till-any-match")),
            Semantics::Next if !self.next => return Err(Unsupported("skip-till-next-match")),
            Semantics::Cont if !self.cont => return Err(Unsupported("contiguous semantics")),
            _ => {}
        }
        if !self.adjacent_predicates && query.disjuncts.iter().any(|d| !d.adjacents.is_empty()) {
            return Err(Unsupported("predicates on adjacent events"));
        }
        if !self.negation
            && query
                .disjuncts
                .iter()
                .any(|d| d.automaton.num_negated() > 0)
        {
            return Err(Unsupported("negated sub-patterns"));
        }
        Ok(())
    }

    /// The event matching semantics this row supports, as the errors name
    /// them.
    pub(crate) fn semantics(&self) -> Vec<&'static str> {
        [
            (self.any, "skip-till-any-match"),
            (self.next, "skip-till-next-match"),
            (self.cont, "contiguous semantics"),
        ]
        .into_iter()
        .filter_map(|(on, name)| on.then_some(name))
        .collect()
    }
}

/// A query feature an engine lacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unsupported(pub &'static str);

impl std::fmt::Display for Unsupported {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "does not support {}", self.0)
    }
}

impl std::error::Error for Unsupported {}

#[cfg(test)]
mod tests {
    use super::*;
    use cogra_events::{TypeRegistry, ValueKind};

    fn compiled(src: &str) -> CompiledQuery {
        let mut reg = TypeRegistry::new();
        reg.register_type("A", vec![("v", ValueKind::Int)]);
        reg.register_type("B", vec![("v", ValueKind::Int)]);
        let q = cogra_query::parse(src).unwrap();
        cogra_query::compile(&q, &reg).unwrap()
    }

    #[test]
    fn greta_rejects_next_semantics() {
        let q = compiled("RETURN COUNT(*) PATTERN A+ SEMANTICS NEXT WITHIN 10 SLIDE 10");
        assert!(Capabilities::GRETA.supports(&q).is_err());
        assert!(Capabilities::SASE.supports(&q).is_ok());
        assert!(Capabilities::COGRA.supports(&q).is_ok());
        assert!(Capabilities::FLINK.supports(&q).is_err());
    }

    #[test]
    fn aseq_rejects_adjacent_predicates() {
        let q = compiled(
            "RETURN COUNT(*) PATTERN A+ SEMANTICS ANY WHERE A.v < NEXT(A).v WITHIN 10 SLIDE 10",
        );
        let err = Capabilities::ASEQ.supports(&q).unwrap_err();
        assert!(err.to_string().contains("adjacent"));
        assert!(Capabilities::GRETA.supports(&q).is_ok());
    }

    #[test]
    fn flink_supports_cont_but_not_next() {
        let cont = compiled("RETURN COUNT(*) PATTERN A+ SEMANTICS CONT WITHIN 10 SLIDE 10");
        assert!(Capabilities::FLINK.supports(&cont).is_ok());
        let any = compiled("RETURN COUNT(*) PATTERN A+ SEMANTICS ANY WITHIN 10 SLIDE 10");
        assert!(Capabilities::FLINK.supports(&any).is_ok());
    }
}
