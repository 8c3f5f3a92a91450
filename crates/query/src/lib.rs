//! # cogra-query
//!
//! Query model and Static Query Analyzer for COGRA (§2–§3 of the paper):
//!
//! * [`ast`] — surface abstract syntax: patterns (Definition 1), event
//!   matching semantics (§2.2), predicates, aggregation calls, and the
//!   six-clause query (Definition 6);
//! * [`parser`] — text parser for the SASE-style language of queries
//!   q1–q3;
//! * [`rewrite`] — §8 desugaring: Kleene star, optional sub-patterns and
//!   disjunction expand into core-pattern disjuncts; minimal-trend-length
//!   unrolling;
//! * [`automaton`] — the Pattern Analyzer (§3.1): FSA representation with
//!   predecessor types and negation-tagged transitions;
//! * [`mod@compile`] — the Predicate Classifier (§3.2) and Granularity
//!   Selector (§3.3, Table 4) producing an executable [`CompiledQuery`].

#![warn(missing_docs)]

pub mod ast;
pub mod automaton;
pub mod compile;
pub mod error;
pub mod explain;
pub mod lexer;
pub mod parser;
pub mod rewrite;
pub mod signature;

pub use ast::{
    AggCall, AttrRef, CmpOp, Leaf, Literal, PatternExpr, PredicateExpr, Query, ReturnItem,
    Semantics,
};
pub use automaton::{Automaton, NegId, PredEdge, StateId, VarInfo};
pub use compile::{
    compile, select_granularity, AggFunc, CompiledAdjacent, CompiledAgg, CompiledDisjunct,
    CompiledQuery, Granularity, LocalFilter, Route,
};
pub use error::{QueryError, QueryResult};
pub use explain::{explain, explain_text, to_dot};
pub use parser::{parse, MAX_NESTING};
pub use signature::canonical_signature;
