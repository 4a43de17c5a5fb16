//! Joins span fragments into one tree per traced request and splits each
//! request's client-side latency into per-span self times.
//!
//! A traced request produces fragments in several places: the client's
//! own `client_request` span, the entry node's `request` tree, and — in a
//! cluster — one more `request` tree per peek or forward on the home
//! node. Every fragment root names its remote parent (the span whose
//! `traceparent` it received), so following parent span ids down from the
//! client span yields one tree. The join follows span ids, not trace ids:
//! a node that receives a trace id it still has open (a forward arriving
//! while the same node is finishing the peek before it) records the new
//! fragment under a fresh trace id, but keeps its remote parent.

use std::collections::hash_map::Entry;
use std::collections::HashMap;

use levy_obs::FinishedTrace;
use levy_sim::Json;

/// One finished span, from a node's trace store or from the client.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Trace identity shared by every fragment of one request.
    pub trace: u128,
    /// The span's own id.
    pub id: u64,
    /// Parent span, possibly on another node; `None` only for the
    /// client span.
    pub parent: Option<u64>,
    /// Span name (`client_request`, `request`, `cache_probe`, ...).
    pub name: String,
    /// Where it was recorded: `client` or `node<i>`.
    pub node: String,
    /// Start, unix microseconds.
    pub start_us: u64,
    /// Duration, microseconds.
    pub dur_us: u64,
}

/// Every span of `traces` (one node's finished fragments), with fragment
/// roots re-parented under their remote parent.
pub fn from_fragments(traces: &[FinishedTrace], node: &str) -> Vec<Span> {
    traces
        .iter()
        .flat_map(|trace| {
            trace.spans.iter().map(move |span| Span {
                trace: trace.trace_id.0,
                id: span.span_id.0,
                parent: span.parent_id.or(trace.remote_parent).map(|p| p.0),
                name: span.name.clone(),
                node: node.to_owned(),
                start_us: span.start_unix_us,
                dur_us: span.dur_us,
            })
        })
        .collect()
}

/// `dur` of the interval `[start, start + dur)` minus the part of it
/// covered by the union of `children` (each clipped to the interval).
pub fn self_time_us(start: u64, dur: u64, children: &[(u64, u64)]) -> u64 {
    let end = start + dur;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, d)| (s.max(start), (s + d).min(end)))
        .filter(|(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (s, e) in clipped {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    if let Some((cs, ce)) = current {
        covered += ce - cs;
    }
    dur - covered
}

/// One span of a joined request tree, with its self time.
#[derive(Debug, Clone, PartialEq)]
pub struct Timed {
    /// The span.
    pub span: Span,
    /// Its duration minus the union of its children's intervals, both
    /// clipped to the parent's window.
    pub self_us: u64,
}

/// A traced request: every span reachable from its client span.
#[derive(Debug, Clone)]
pub struct Request {
    /// The trace id.
    pub trace: u128,
    /// Client-observed latency (the client span's duration).
    pub latency_us: u64,
    /// Reachable spans, client span first.
    pub spans: Vec<Timed>,
}

impl Request {
    /// Client latency minus the sum of all self times. Zero when every
    /// microsecond of the client's wait is attributed exactly once;
    /// overlapping siblings (time counted twice) make it negative.
    pub fn residual_us(&self) -> i64 {
        let total: u64 = self.spans.iter().map(|t| t.self_us).sum();
        self.latency_us as i64 - total as i64
    }

    /// Spans named `name`.
    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Timed> + 'a {
        self.spans.iter().filter(move |t| t.span.name == name)
    }

    /// The first fragment `route` says this request's tree must hold but
    /// does not: a lost fragment is absorbed into its parent's self time
    /// and leaves the residual at zero, so it has to be checked for.
    pub fn missing(&self, route: &Route) -> Option<&'static str> {
        let client = Some(self.spans[0].span.id);
        if !self
            .named("request")
            .any(|t| t.span.node == route.entry && t.span.parent == client)
        {
            return Some("the entry node's request fragment");
        }
        if let Some(hop) = route.hop {
            let hops: Vec<u64> = self.named(hop).map(|t| t.span.id).collect();
            if !self
                .named("request")
                .any(|t| t.span.parent.is_some_and(|p| hops.contains(&p)))
            {
                return Some("the home node's request fragment");
            }
        }
        if route.simulated && self.named("simulate").next().is_none() {
            return Some("the simulate span of a cold miss");
        }
        None
    }
}

/// Where a traced request's answer came from, as its response headers
/// tell it: which fragments its tree must therefore contain.
#[derive(Debug, Clone, PartialEq)]
pub struct Route {
    /// The node the request entered at (`node<i>`).
    pub entry: String,
    /// Answered through another node: the hop span (`peer_peek` for
    /// `X-Levy-Cache: remote`, `peer_forward` for `forwarded`) under
    /// which that node's `request` fragment must hang.
    pub hop: Option<&'static str>,
    /// Simulated for this request, here or on the home node, so a
    /// `simulate` span exists.
    pub simulated: bool,
}

impl Route {
    /// The route implied by `X-Levy-Cache` (`hit`, `miss`, `coalesced`,
    /// `remote`, `forwarded`) and, on a forward, the home's own
    /// `X-Levy-Home-Cache`.
    pub fn from_headers(entry: String, cache: Option<&str>, home_cache: Option<&str>) -> Route {
        let hop = match cache {
            Some("remote") => Some("peer_peek"),
            Some("forwarded") => Some("peer_forward"),
            _ => None,
        };
        let simulated = match cache {
            Some("miss") => true,
            Some("forwarded") => home_cache == Some("miss"),
            _ => false,
        };
        Route {
            entry,
            hop,
            simulated,
        }
    }
}

/// Builds one [`Request`] per client span from every span reachable
/// from it through parent links. Spans not reachable from a client span
/// (lost or foreign fragments) are ignored; [`Request::missing`] exposes
/// lost ones.
pub fn join(spans: Vec<Span>) -> Vec<Request> {
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, span) in spans.iter().enumerate() {
        if let Some(parent) = span.parent {
            children.entry(parent).or_default().push(i);
        }
    }
    let mut requests: Vec<Request> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "client_request" && s.parent.is_none())
        .map(|(root, _)| tree(&spans, &children, root))
        .collect();
    requests.sort_by_key(|r| r.spans[0].span.start_us);
    requests
}

/// The request rooted at client span `root`.
fn tree(spans: &[Span], children: &HashMap<u64, Vec<usize>>, root: usize) -> Request {
    let kids = |i: usize| children.get(&spans[i].id).into_iter().flatten().copied();
    // Breadth-first from the client span; each span's window is its
    // interval clipped to its parent's window, so time a server spends
    // after the client already has its answer (bookkeeping between the
    // socket write and the span's finish) is never charged to the
    // request.
    let end_of = |i: usize| spans[i].start_us + spans[i].dur_us;
    let mut window: HashMap<usize, (u64, u64)> =
        HashMap::from([(root, (spans[root].start_us, end_of(root)))]);
    let mut order = vec![root];
    let mut next = 0;
    while next < order.len() {
        let (start, end) = window[&order[next]];
        for kid in kids(order[next]) {
            if let Entry::Vacant(slot) = window.entry(kid) {
                let s = spans[kid].start_us.clamp(start, end);
                slot.insert((s, end_of(kid).clamp(s, end)));
                order.push(kid);
            }
        }
        next += 1;
    }
    let timed = order
        .iter()
        .map(|&i| {
            let covered: Vec<(u64, u64)> = kids(i)
                .map(|k| {
                    let (s, e) = window[&k];
                    (s, e - s)
                })
                .collect();
            let (start, end) = window[&i];
            Timed {
                self_us: self_time_us(start, end - start, &covered),
                span: spans[i].clone(),
            }
        })
        .collect();
    Request {
        trace: spans[root].trace,
        latency_us: spans[root].dur_us,
        spans: timed,
    }
}

/// One JSON line per span, for `spans-<workload>.jsonl`.
pub fn jsonl(requests: &[Request]) -> String {
    let mut out = String::new();
    for request in requests {
        for timed in &request.spans {
            let span = &timed.span;
            let mut fields = vec![
                ("trace", Json::from(format!("{:032x}", span.trace))),
                ("span", Json::from(format!("{:016x}", span.id))),
            ];
            if let Some(parent) = span.parent {
                fields.push(("parent", Json::from(format!("{parent:016x}"))));
            }
            fields.extend([
                ("name", Json::from(span.name.clone())),
                ("node", Json::from(span.node.clone())),
                ("start_unix_us", Json::from(span.start_us)),
                ("dur_us", Json::from(span.dur_us)),
                ("self_us", Json::from(timed.self_us)),
            ]);
            out.push_str(&Json::obj(fields).to_string_compact());
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        // Parent [0, 100); children [10, 40), [30, 60) overlap, [90, 120)
        // sticks out: covered = [10, 60) ∪ [90, 100) = 60.
        assert_eq!(self_time_us(0, 100, &[(10, 30), (30, 30), (90, 30)]), 40);
        // Nested-in-each-other and duplicate children count once.
        assert_eq!(self_time_us(0, 100, &[(20, 50), (30, 10), (20, 50)]), 50);
        // Touching intervals merge; children outside are ignored.
        assert_eq!(self_time_us(100, 50, &[(100, 10), (110, 10), (0, 50)]), 30);
        assert_eq!(self_time_us(0, 10, &[]), 10);
    }

    fn span(id: u64, parent: Option<u64>, name: &str, start: u64, dur: u64) -> Span {
        Span {
            trace: 7,
            id,
            parent,
            name: name.into(),
            node: "node0".into(),
            start_us: start,
            dur_us: dur,
        }
    }

    #[test]
    fn fragments_join_under_the_client_span() {
        // client [0,100) > entry request [10,90) > cluster_route [20,80)
        // > peer_peek [25,75) > home request [30,70) > cache_probe [35,45).
        let spans = vec![
            span(6, Some(5), "cache_probe", 35, 10),
            span(5, Some(4), "request", 30, 40),
            span(4, Some(3), "peer_peek", 25, 50),
            span(3, Some(2), "cluster_route", 20, 60),
            span(2, Some(1), "request", 10, 80),
            span(1, None, "client_request", 0, 100),
            span(9, Some(99), "orphan", 0, 5),
        ];
        let requests = join(spans);
        assert_eq!(requests.len(), 1);
        let request = &requests[0];
        assert_eq!(request.latency_us, 100);
        assert_eq!(request.spans.len(), 6, "the orphan is not reachable");
        let self_of = |name: &str| request.named(name).map(|t| t.self_us).sum::<u64>();
        assert_eq!(self_of("client_request"), 20);
        assert_eq!(self_of("request"), 20 + 30);
        assert_eq!(self_of("peer_peek"), 10);
        assert_eq!(self_of("cache_probe"), 10);
        assert_eq!(request.residual_us(), 0, "clean nesting leaves no residual");
    }

    #[test]
    fn server_time_after_the_client_is_answered_is_clipped() {
        // The server root finishes 10 µs after the client got its bytes;
        // its response write ends 5 µs after.
        let requests = join(vec![
            span(1, None, "client_request", 0, 100),
            span(2, Some(1), "request", 20, 90),
            span(3, Some(2), "response_encode", 90, 15),
        ]);
        let request = &requests[0];
        let self_of = |name: &str| request.named(name).map(|t| t.self_us).sum::<u64>();
        assert_eq!(self_of("client_request"), 20);
        assert_eq!(self_of("request"), 70);
        assert_eq!(self_of("response_encode"), 10);
        assert_eq!(request.residual_us(), 0);
    }

    /// A forwarded cold query entering at node0: the client span, the
    /// entry's `request` tree with its peek and forward hops, and the
    /// home's fragments (peek miss, then the forwarded query simulated).
    fn forwarded_cold_query() -> Vec<Span> {
        let on = |node: &str, mut s: Span| {
            s.node = node.into();
            s
        };
        vec![
            on("client", span(1, None, "client_request", 0, 1000)),
            on("node0", span(2, Some(1), "request", 10, 980)),
            on("node0", span(3, Some(2), "cluster_route", 20, 960)),
            on("node0", span(4, Some(3), "peer_peek", 25, 100)),
            on("node1", span(5, Some(4), "request", 30, 90)),
            on("node0", span(6, Some(3), "peer_forward", 130, 840)),
            on("node1", span(7, Some(6), "request", 140, 820)),
            on("node1", span(8, Some(7), "simulate", 200, 700)),
        ]
    }

    fn forwarded() -> Route {
        Route::from_headers("node0".into(), Some("forwarded"), Some("miss"))
    }

    #[test]
    fn a_complete_forwarded_tree_has_every_fragment() {
        let requests = join(forwarded_cold_query());
        assert_eq!(requests[0].missing(&forwarded()), None);
        assert_eq!(requests[0].residual_us(), 0);
    }

    #[test]
    fn a_dropped_fragment_fails_the_check_though_the_residual_stays_zero() {
        let without = |ids: &[u64]| {
            let spans = forwarded_cold_query()
                .into_iter()
                .filter(|s| !ids.contains(&s.id))
                .collect();
            join(spans).remove(0)
        };
        // The home node evicted both of its fragments: their time is
        // absorbed by the peek and forward hops, the residual stays 0.
        let no_home = without(&[5, 7, 8]);
        assert_eq!(no_home.residual_us(), 0);
        assert_eq!(
            no_home.missing(&forwarded()),
            Some("the home node's request fragment")
        );
        // The forwarded query's fragment was lost but the peek's was
        // not: the home still recorded a request, just not this one.
        assert_eq!(
            without(&[7, 8]).missing(&forwarded()),
            Some("the home node's request fragment")
        );
        // Only the simulate span was lost.
        assert_eq!(
            without(&[8]).missing(&forwarded()),
            Some("the simulate span of a cold miss")
        );
        // The entry node's tree is gone (a broken traceparent hop): all
        // that is left is the client span.
        let no_entry = without(&[2]);
        assert_eq!(no_entry.spans.len(), 1);
        assert_eq!(
            no_entry.missing(&forwarded()),
            Some("the entry node's request fragment")
        );
        // A remote cache hit needs the home's fragment but no simulate.
        let remote = Route::from_headers("node0".into(), Some("remote"), None);
        assert_eq!(without(&[6, 7, 8]).missing(&remote), None);
        assert!(without(&[5, 6, 7, 8]).missing(&remote).is_some());
    }

    #[test]
    fn a_fragment_recorded_under_a_fresh_trace_id_joins_by_its_parent_span() {
        // The home re-minted the trace id of the forward (span 7) because
        // the peek's fragment (span 5) was still open on the same node.
        let mut spans = forwarded_cold_query();
        for span in spans.iter_mut().filter(|s| s.id >= 7) {
            span.trace = 8;
        }
        let requests = join(spans);
        assert_eq!(requests.len(), 1);
        assert_eq!(requests[0].trace, 7);
        assert_eq!(requests[0].spans.len(), 8);
        assert_eq!(requests[0].missing(&forwarded()), None);
        assert_eq!(requests[0].residual_us(), 0);
    }

    #[test]
    fn routes_follow_the_cache_headers() {
        let route = |cache, home| Route::from_headers("node2".into(), cache, home);
        let flags = |r: Route| (r.hop, r.simulated);
        assert_eq!(flags(route(Some("hit"), None)), (None, false));
        assert_eq!(flags(route(Some("miss"), None)), (None, true));
        assert_eq!(flags(route(Some("coalesced"), None)), (None, false));
        assert_eq!(
            flags(route(Some("remote"), Some("hit"))),
            (Some("peer_peek"), false)
        );
        assert_eq!(
            flags(route(Some("forwarded"), Some("miss"))),
            (Some("peer_forward"), true)
        );
        assert_eq!(
            flags(route(Some("forwarded"), Some("coalesced"))),
            (Some("peer_forward"), false)
        );
    }

    #[test]
    fn overlapping_siblings_show_up_as_a_negative_residual() {
        let requests = join(vec![
            span(1, None, "client_request", 0, 100),
            span(2, Some(1), "queue_wait", 10, 50),
            span(3, Some(1), "worker_exec", 40, 50),
        ]);
        assert_eq!(requests[0].residual_us(), -20, "[40, 60) counted twice");
    }
}
