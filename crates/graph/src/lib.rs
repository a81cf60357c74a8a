//! # fs-graph — graph substrate for the Frontier Sampling reproduction
//!
//! This crate implements the graph model of Ribeiro & Towsley,
//! *"Estimating and Sampling Graphs with Multidimensional Random Walks"*
//! (IMC 2010), Section 2:
//!
//! * The network is a labeled **directed graph** `G_d = (V, E_d)`.
//! * A crawler can retrieve both incoming and outgoing edges of a queried
//!   vertex, so random walks operate on the **symmetric closure**
//!   `G = (V, E)` with `E = ⋃_{(u,v) ∈ E_d} {(u,v), (v,u)}`.
//! * `deg(v)` denotes the symmetric degree (in-degree equals out-degree in
//!   `G`); `vol(S) = Σ_{v∈S} deg(v)`.
//!
//! [`Graph`] stores the symmetric closure in compressed sparse row (CSR)
//! form while remembering, per arc, whether the arc existed in the original
//! `G_d` and what each vertex's original in-/out-degrees are. That is enough
//! to drive every estimator in the paper (degree distributions of `G_d`,
//! assortativity over `E_d`, clustering over `G`).
//!
//! The crate also provides the *exact* graph characteristics used as ground
//! truth by the evaluation harness: degree distributions and CCDFs
//! ([`stats`]), the global clustering coefficient ([`triangles`]), the
//! assortative mixing coefficient ([`assortativity`]), connected components
//! and LCC extraction ([`components`]), and a plain-text edge-list format
//! ([`io`]).
//!
//! ## Quick example
//!
//! ```
//! use fs_graph::{GraphBuilder, VertexId};
//!
//! // A directed triangle plus a dangling edge.
//! let mut b = GraphBuilder::new(4);
//! b.add_edge(VertexId::new(0), VertexId::new(1));
//! b.add_edge(VertexId::new(1), VertexId::new(2));
//! b.add_edge(VertexId::new(2), VertexId::new(0));
//! b.add_edge(VertexId::new(2), VertexId::new(3));
//! let g = b.build();
//!
//! assert_eq!(g.num_vertices(), 4);
//! assert_eq!(g.num_undirected_edges(), 4);
//! assert_eq!(g.num_arcs(), 8); // symmetric closure
//! assert_eq!(g.degree(VertexId::new(2)), 3);
//! assert_eq!(g.out_degree_orig(VertexId::new(2)), 2);
//! ```

// `deny` rather than `forbid`: the one sanctioned exception is the
// software-prefetch hint in [`prefetch`], which carries a written safety
// argument and a scoped `#[allow]`. Everything else stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod access;
pub mod assortativity;
pub mod bitset;
pub mod builder;
pub mod components;
pub mod counted;
pub mod csr;
pub mod failpoint;
pub mod fnv;
pub mod graph;
pub mod ids;
pub mod io;
pub mod labels;
pub mod prefetch;
pub mod sharded;
pub mod stats;
pub mod subgraph;
pub mod traversal;
pub mod triangles;
pub mod weighted;
pub mod weighted_io;

pub use access::{
    shared_neighbors_via, CsrAccess, GraphAccess, NeighborReply, QueryKind, StepReply, StepSlot,
};
pub use assortativity::{degree_assortativity, DegreeLabels, MomentAccumulator};
pub use bitset::BitSet;
pub use builder::{graph_from_directed_pairs, graph_from_undirected_pairs, GraphBuilder};
pub use components::{
    connected_components, is_bipartite, is_connected, largest_connected_component,
    ConnectedComponents,
};
pub use counted::CountedAccess;
pub use fnv::{fnv1a64, Fnv1a};
pub use graph::{Arc, Graph};
pub use ids::{ArcId, GroupId, VertexId};
pub use labels::VertexGroups;
pub use prefetch::prefetch_read;
pub use sharded::ShardedCounter;
pub use stats::{
    average_neighbor_degree, ccdf, degree_distribution, degree_histogram, DegreeKind, GraphSummary,
};
pub use subgraph::{induced_subgraph, SubgraphMap};
pub use triangles::{global_clustering, local_clustering, shared_neighbors, total_triangles};
pub use weighted::{WeightedArc, WeightedGraph};
