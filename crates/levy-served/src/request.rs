//! Query validation, canonicalization, and content-addressed cache keys.
//!
//! A request body is parsed with `levy_sim::Json`, validated into a
//! [`Query`] (which maps onto `levy_sim::MeasurementConfig` plus an
//! estimator choice), then *canonicalized*: every default is materialized
//! and the fields are re-serialized compactly in one fixed order. The
//! FNV-1a-128 hash of that canonical form is the query's cache key, so
//! two requests that differ only in field order, whitespace, or omitted
//! defaults coalesce onto the same computation — and, because the whole
//! engine is deterministic given a seed, a cache hit returns the exact
//! bytes a fresh simulation would produce.
//!
//! Fields that do not affect the simulation result (currently
//! `timeout_ms`) are excluded from the canonical form.

use levy_rng::ExponentStrategy;
use levy_sim::{Json, MeasurementConfig, Precision, TargetPlacement};

/// Hard cap on `trials · budget · k` — rejects requests whose worst-case
/// step count would monopolize the daemon (HTTP 400, not a queue slot).
pub const MAX_REQUEST_COST: u128 = 200_000_000_000;

/// Hard cap on adaptive `max_trials · budget · k` for the same reason.
const MAX_K: u64 = 1 << 20;
const MAX_ELL: u64 = 1 << 32;
const MAX_BUDGET: u64 = 1 << 40;

/// Which simulation family a query runs (the `kind` field).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryKind {
    /// One Lévy walk (Theorems 1.1–1.3; experiment E1).
    SingleWalk,
    /// One Lévy flight (intermittent detection; ablation A2).
    SingleFlight,
    /// `k` parallel walks, common or per-walk exponents (Cor 4.2 /
    /// Thm 1.5–1.6; experiments E6–E7).
    Parallel,
    /// A named `levy_search::SearchStrategy` (the E8 shoot-out families).
    Search,
}

impl QueryKind {
    fn as_str(&self) -> &'static str {
        match self {
            QueryKind::SingleWalk => "single_walk",
            QueryKind::SingleFlight => "single_flight",
            QueryKind::Parallel => "parallel",
            QueryKind::Search => "search",
        }
    }

    fn parse(s: &str) -> Option<QueryKind> {
        match s {
            "single_walk" => Some(QueryKind::SingleWalk),
            "single_flight" => Some(QueryKind::SingleFlight),
            "parallel" => Some(QueryKind::Parallel),
            "search" => Some(QueryKind::Search),
            _ => None,
        }
    }
}

/// Exponent selection: a fixed `alpha` or a named strategy.
#[derive(Debug, Clone, PartialEq)]
pub enum ExponentSpec {
    /// A fixed exponent for every walk.
    Fixed(f64),
    /// `α ~ Uniform(2, 3)` per walk (Theorem 1.6).
    Uniform,
    /// `α ~ Uniform(lo, hi)` per walk.
    UniformRange {
        /// Lower endpoint.
        lo: f64,
        /// Upper endpoint.
        hi: f64,
    },
    /// The deterministic scale-aware exponent of Theorem 1.5 (uses the
    /// query's `k` and `ell`).
    Optimal,
}

impl ExponentSpec {
    /// Canonical string form (what the cache key hashes).
    pub fn canonical(&self) -> String {
        match self {
            ExponentSpec::Fixed(alpha) => format!("fixed:{alpha}"),
            ExponentSpec::Uniform => "uniform".into(),
            ExponentSpec::UniformRange { lo, hi } => format!("uniform:{lo}:{hi}"),
            ExponentSpec::Optimal => "optimal".into(),
        }
    }

    /// The corresponding `levy_rng::ExponentStrategy`.
    pub fn strategy(&self, k: u64, ell: u64) -> ExponentStrategy {
        match *self {
            ExponentSpec::Fixed(alpha) => ExponentStrategy::Fixed(alpha),
            ExponentSpec::Uniform => ExponentStrategy::UniformSuperdiffusive,
            ExponentSpec::UniformRange { lo, hi } => ExponentStrategy::UniformRange { lo, hi },
            ExponentSpec::Optimal => ExponentStrategy::OptimalForScale { k, ell },
        }
    }
}

/// Named search-strategy families for `kind = "search"` (E8).
#[derive(Debug, Clone, PartialEq)]
pub enum SearchSpec {
    /// `LevySearch` with the given exponent spec.
    Levy(ExponentSpec),
    /// Straight-line ballistic search.
    Ballistic,
    /// Lazy simple random walk.
    RandomWalk,
    /// `MixtureSearch::grid(n)` palette.
    Mixture(u64),
}

impl SearchSpec {
    fn canonical(&self) -> String {
        match self {
            SearchSpec::Levy(spec) => format!("levy/{}", spec.canonical()),
            SearchSpec::Ballistic => "ballistic".into(),
            SearchSpec::RandomWalk => "random_walk".into(),
            SearchSpec::Mixture(n) => format!("mixture:{n}"),
        }
    }
}

/// How much simulation to spend: a fixed trial count or an adaptive
/// precision target.
#[derive(Debug, Clone, PartialEq)]
pub enum Estimator {
    /// Exactly `trials` trials; the response carries the full censored
    /// summary.
    Trials(u64),
    /// Batched adaptive estimation until the Wilson interval is narrow
    /// enough; the response carries `p`, the interval, and `trials_used`.
    Adaptive(Precision),
}

/// A validated, canonicalized simulation query.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Simulation family.
    pub kind: QueryKind,
    /// Exponent selection (`single_*` require `Fixed`).
    pub exponent: ExponentSpec,
    /// Search family for `kind = "search"`, `None` otherwise.
    pub search: Option<SearchSpec>,
    /// Number of parallel agents (forced to 1 for `single_*`).
    pub k: u64,
    /// Target distance `ℓ`.
    pub ell: u64,
    /// Step budget (right-censoring point).
    pub budget: u64,
    /// Target placement rule.
    pub placement: TargetPlacement,
    /// Spend rule.
    pub estimator: Estimator,
    /// Master seed.
    pub seed: u64,
    /// Per-request wait timeout in milliseconds (not part of the cache
    /// key; `None` = server default).
    pub timeout_ms: Option<u64>,
}

/// A validation failure, reported to the client as HTTP 400.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryError(pub String);

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for QueryError {}

fn err(message: impl Into<String>) -> QueryError {
    QueryError(message.into())
}

fn field_f64(body: &Json, key: &str) -> Result<Option<f64>, QueryError> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_f64()
            .filter(|x| x.is_finite())
            .map(Some)
            .ok_or_else(|| err(format!("field '{key}' must be a finite number"))),
    }
}

fn field_u64(body: &Json, key: &str) -> Result<Option<u64>, QueryError> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| err(format!("field '{key}' must be a non-negative integer"))),
    }
}

fn field_str<'a>(body: &'a Json, key: &str) -> Result<Option<&'a str>, QueryError> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_str()
            .map(Some)
            .ok_or_else(|| err(format!("field '{key}' must be a string"))),
    }
}

/// Parses a strategy string into an exponent spec. Syntax only: the
/// range limits live in [`Query::validate`].
fn parse_exponent_spec(s: &str) -> Result<ExponentSpec, QueryError> {
    if s == "uniform" {
        return Ok(ExponentSpec::Uniform);
    }
    if s == "optimal" {
        return Ok(ExponentSpec::Optimal);
    }
    if let Some(rest) = s.strip_prefix("uniform:") {
        let Some((lo, hi)) = rest.split_once(':') else {
            return Err(err("strategy 'uniform:LO:HI' needs two endpoints"));
        };
        let (lo, hi) = (
            lo.parse::<f64>()
                .map_err(|_| err("invalid uniform lower endpoint"))?,
            hi.parse::<f64>()
                .map_err(|_| err("invalid uniform upper endpoint"))?,
        );
        return Ok(ExponentSpec::UniformRange { lo, hi });
    }
    if let Some(alpha) = s.strip_prefix("fixed:") {
        let alpha = alpha
            .parse::<f64>()
            .map_err(|_| err("invalid fixed exponent"))?;
        return Ok(ExponentSpec::Fixed(alpha));
    }
    Err(err(format!(
        "unknown strategy '{s}' (expected 'uniform', 'uniform:LO:HI', 'optimal', or 'fixed:A')"
    )))
}

fn validate_spec(spec: &ExponentSpec) -> Result<(), QueryError> {
    match spec {
        ExponentSpec::Fixed(alpha) => {
            if !(alpha.is_finite() && *alpha > 1.0 && *alpha <= 10.0) {
                return Err(err("alpha must lie in (1, 10]"));
            }
        }
        ExponentSpec::UniformRange { lo, hi } => {
            if !(lo.is_finite() && hi.is_finite() && 1.0 < *lo && lo < hi) {
                return Err(err("uniform range must satisfy 1 < lo < hi"));
            }
        }
        ExponentSpec::Uniform | ExponentSpec::Optimal => {}
    }
    Ok(())
}

impl Query {
    /// Parses a JSON body into a query, then [`validate`](Query::validate)s
    /// it.
    ///
    /// Parsing is syntax only: field types, unknown fields, required
    /// fields, and the alpha-xor-strategy and trials-xor-precision rules.
    /// Every limit lives in `validate`, which the binary wire decoder
    /// calls too. See DESIGN.md §7 for the schema. Unknown fields are
    /// rejected so that a typo (`"apha"`) fails loudly instead of silently
    /// running the default.
    pub fn from_json(body: &Json) -> Result<Query, QueryError> {
        let Some(pairs) = body.as_object() else {
            return Err(err("request body must be a JSON object"));
        };
        const KNOWN: &[&str] = &[
            "kind",
            "alpha",
            "strategy",
            "k",
            "ell",
            "budget",
            "trials",
            "precision",
            "placement",
            "seed",
            "timeout_ms",
        ];
        for (key, _) in pairs {
            if !KNOWN.contains(&key.as_str()) {
                return Err(err(format!("unknown field '{key}'")));
            }
        }

        let kind = match field_str(body, "kind")? {
            Some(s) => QueryKind::parse(s).ok_or_else(|| {
                err(format!(
                    "unknown kind '{s}' (expected single_walk, single_flight, parallel, or search)"
                ))
            })?,
            None => return Err(err("missing required field 'kind'")),
        };

        let alpha = field_f64(body, "alpha")?;
        let strategy_str = field_str(body, "strategy")?;
        let k = field_u64(body, "k")?;
        let ell = field_u64(body, "ell")?.ok_or_else(|| err("missing required field 'ell'"))?;
        let budget =
            field_u64(body, "budget")?.ok_or_else(|| err("missing required field 'budget'"))?;
        let seed = field_u64(body, "seed")?.unwrap_or(0);
        let timeout_ms = field_u64(body, "timeout_ms")?;

        // Exponent / strategy resolution per kind.
        let (exponent, search, k) = match kind {
            QueryKind::SingleWalk | QueryKind::SingleFlight => {
                if strategy_str.is_some() {
                    return Err(err(
                        "single_walk/single_flight take 'alpha', not 'strategy'",
                    ));
                }
                let alpha = alpha.ok_or_else(|| err("missing required field 'alpha'"))?;
                (ExponentSpec::Fixed(alpha), None, k.unwrap_or(1))
            }
            QueryKind::Parallel => {
                let k = k.ok_or_else(|| err("missing required field 'k'"))?;
                let spec = match (alpha, strategy_str) {
                    (Some(_), Some(_)) => {
                        return Err(err("provide exactly one of 'alpha' or 'strategy'"))
                    }
                    (Some(alpha), None) => ExponentSpec::Fixed(alpha),
                    (None, Some(s)) => parse_exponent_spec(s)?,
                    (None, None) => return Err(err("parallel queries need 'alpha' or 'strategy'")),
                };
                (spec, None, k)
            }
            QueryKind::Search => {
                let k = k.ok_or_else(|| err("missing required field 'k'"))?;
                let family = strategy_str.unwrap_or("levy");
                let search = match family {
                    "ballistic" => SearchSpec::Ballistic,
                    "random_walk" => SearchSpec::RandomWalk,
                    s if s.starts_with("mixture:") => SearchSpec::Mixture(
                        s["mixture:".len()..]
                            .parse::<u64>()
                            .map_err(|_| err("invalid mixture palette size"))?,
                    ),
                    "levy" => {
                        SearchSpec::Levy(alpha.map_or(ExponentSpec::Uniform, ExponentSpec::Fixed))
                    }
                    s => parse_exponent_spec(s).map(SearchSpec::Levy).map_err(|_| {
                        err(format!(
                            "unknown search strategy '{s}' (expected levy, ballistic, \
                             random_walk, mixture:N, or an exponent spec)"
                        ))
                    })?,
                };
                let exponent = match &search {
                    SearchSpec::Levy(spec) => spec.clone(),
                    _ => ExponentSpec::Uniform,
                };
                (exponent, Some(search), k)
            }
        };

        let placement = match field_str(body, "placement")? {
            None | Some("random") => TargetPlacement::RandomDirection,
            Some("east") => TargetPlacement::FixedEast,
            Some(s) => return Err(err(format!("unknown placement '{s}'"))),
        };

        // Estimator: fixed trials (default 400) xor adaptive precision.
        let trials = field_u64(body, "trials")?;
        let estimator = match body.get("precision") {
            None | Some(Json::Null) => Estimator::Trials(trials.unwrap_or(400)),
            Some(p) => {
                if trials.is_some() {
                    return Err(err("provide exactly one of 'trials' or 'precision'"));
                }
                let Some(fields) = p.as_object() else {
                    return Err(err("'precision' must be an object"));
                };
                for (key, _) in fields {
                    if !["absolute", "relative", "max_trials"].contains(&key.as_str()) {
                        return Err(err(format!("unknown precision field '{key}'")));
                    }
                }
                Estimator::Adaptive(Precision {
                    absolute: field_f64(p, "absolute")?.unwrap_or(0.01),
                    relative: field_f64(p, "relative")?.unwrap_or(0.10),
                    max_trials: field_u64(p, "max_trials")?.unwrap_or(1 << 20),
                })
            }
        };

        let query = Query {
            kind,
            exponent,
            search,
            k,
            ell,
            budget,
            placement,
            estimator,
            seed,
            timeout_ms,
        };
        query.validate()?;
        Ok(query)
    }

    /// Checks every limit of a query: ranges of ell, budget, k, alpha and
    /// uniform endpoints, the mixture palette size, the spend (trials or
    /// precision), the per-kind shape, and the `trials · budget · k` cost
    /// cap. [`from_json`](Query::from_json) calls it after parsing, and
    /// decoders that build the struct directly (the binary wire path)
    /// call it themselves.
    pub fn validate(&self) -> Result<(), QueryError> {
        if !(1..=MAX_ELL).contains(&self.ell) {
            return Err(err(format!("ell must lie in [1, {MAX_ELL}]")));
        }
        if !(1..=MAX_BUDGET).contains(&self.budget) {
            return Err(err(format!("budget must lie in [1, {MAX_BUDGET}]")));
        }
        validate_spec(&self.exponent)?;
        match self.kind {
            QueryKind::SingleWalk | QueryKind::SingleFlight => {
                if self.k != 1 {
                    return Err(err("single_walk/single_flight require k = 1"));
                }
                if !matches!(self.exponent, ExponentSpec::Fixed(_)) {
                    return Err(err("single_walk/single_flight require a fixed alpha"));
                }
                if self.search.is_some() {
                    return Err(err("single_walk/single_flight take no search strategy"));
                }
            }
            QueryKind::Parallel => {
                if self.search.is_some() {
                    return Err(err("parallel queries take no search strategy"));
                }
            }
            QueryKind::Search => match &self.search {
                None => return Err(err("search queries need a search strategy")),
                Some(SearchSpec::Levy(spec)) => validate_spec(spec)?,
                Some(SearchSpec::Mixture(n)) => {
                    if !(1..=64).contains(n) {
                        return Err(err("mixture palette size must lie in [1, 64]"));
                    }
                }
                Some(SearchSpec::Ballistic | SearchSpec::RandomWalk) => {}
            },
        }
        if !(1..=MAX_K).contains(&self.k) {
            return Err(err(format!("k must lie in [1, {MAX_K}]")));
        }
        let spend = match &self.estimator {
            Estimator::Trials(t) => {
                if *t == 0 {
                    return Err(err("trials must be at least 1"));
                }
                *t
            }
            Estimator::Adaptive(p) => {
                if !(p.absolute.is_finite()
                    && p.absolute > 0.0
                    && p.relative.is_finite()
                    && p.relative >= 0.0
                    && p.max_trials >= 1)
                {
                    return Err(err(
                        "precision needs absolute > 0, relative >= 0, max_trials >= 1",
                    ));
                }
                p.max_trials
            }
        };
        let cost = spend as u128 * self.budget as u128 * self.k as u128;
        if cost > MAX_REQUEST_COST {
            return Err(err(format!(
                "request too large: trials*budget*k = {cost} exceeds {MAX_REQUEST_COST}"
            )));
        }
        Ok(())
    }

    /// The canonical JSON form: all defaults materialized, fixed key
    /// order, result-irrelevant fields (`timeout_ms`) excluded. This is
    /// what gets hashed and what the response echoes back.
    pub fn canonical(&self) -> Json {
        let strategy = match &self.search {
            Some(search) => search.canonical(),
            None => self.exponent.canonical(),
        };
        let estimator = match &self.estimator {
            Estimator::Trials(trials) => Json::obj([
                ("mode", Json::from("trials")),
                ("trials", Json::from(*trials)),
            ]),
            Estimator::Adaptive(p) => Json::obj([
                ("mode", Json::from("adaptive")),
                ("absolute", Json::from(p.absolute)),
                ("relative", Json::from(p.relative)),
                ("max_trials", Json::from(p.max_trials)),
            ]),
        };
        Json::obj([
            ("schema", Json::from("levy-served/query-v1")),
            ("kind", Json::from(self.kind.as_str())),
            ("strategy", Json::from(strategy)),
            ("k", Json::from(self.k)),
            ("ell", Json::from(self.ell)),
            ("budget", Json::from(self.budget)),
            (
                "placement",
                Json::from(match self.placement {
                    TargetPlacement::RandomDirection => "random",
                    TargetPlacement::FixedEast => "east",
                }),
            ),
            ("estimator", estimator),
            ("seed", Json::from(self.seed)),
        ])
    }

    /// The content-addressed cache key: FNV-1a-128 over the compact
    /// canonical form, as 32 lowercase hex digits.
    pub fn cache_key(&self) -> String {
        fnv1a_128_hex(self.canonical().to_string_compact().as_bytes())
    }

    /// The `MeasurementConfig` this query runs under (fixed-trials mode;
    /// adaptive queries derive their own batch sizes).
    pub fn measurement_config(&self, threads: usize) -> MeasurementConfig {
        let trials = match &self.estimator {
            Estimator::Trials(t) => *t,
            Estimator::Adaptive(p) => p.max_trials,
        };
        let mut config = MeasurementConfig::new(self.ell, self.budget, trials, self.seed);
        config.threads = threads.max(1);
        config.placement = self.placement;
        config
    }
}

/// FNV-1a over 128 bits, rendered as 32 hex digits.
///
/// Delegates to [`levy_cluster::fnv1a_128`] — the same function the
/// cluster's hash ring and `levyc`'s client-side routing use, so a key
/// computed anywhere in the stack places identically everywhere.
pub fn fnv1a_128_hex(bytes: &[u8]) -> String {
    format!("{:032x}", levy_cluster::fnv1a_128(bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(body: &str) -> Result<Query, QueryError> {
        Query::from_json(&Json::parse(body).expect("valid JSON"))
    }

    #[test]
    fn minimal_parallel_query_validates() {
        let q =
            parse(r#"{"kind":"parallel","alpha":2.5,"k":16,"ell":128,"budget":10000}"#).unwrap();
        assert_eq!(q.kind, QueryKind::Parallel);
        assert_eq!(q.exponent, ExponentSpec::Fixed(2.5));
        assert_eq!(q.k, 16);
        assert_eq!(q.estimator, Estimator::Trials(400));
        assert_eq!(q.seed, 0);
    }

    #[test]
    fn key_is_independent_of_field_order_and_defaults() {
        let a =
            parse(r#"{"kind":"parallel","alpha":2.5,"k":16,"ell":128,"budget":10000}"#).unwrap();
        let b = parse(
            r#"{"budget":10000, "ell":128, "k":16, "alpha":2.5, "kind":"parallel",
                "seed":0, "trials":400, "placement":"random"}"#,
        )
        .unwrap();
        assert_eq!(a.cache_key(), b.cache_key());
        assert_eq!(a.canonical(), b.canonical());
    }

    #[test]
    fn timeout_is_not_part_of_the_key() {
        let a = parse(r#"{"kind":"single_walk","alpha":2.0,"ell":8,"budget":100}"#).unwrap();
        let b = parse(r#"{"kind":"single_walk","alpha":2.0,"ell":8,"budget":100,"timeout_ms":5}"#)
            .unwrap();
        assert_eq!(a.cache_key(), b.cache_key());
        assert_eq!(b.timeout_ms, Some(5));
    }

    #[test]
    fn distinct_queries_get_distinct_keys() {
        let base = r#"{"kind":"parallel","alpha":2.5,"k":16,"ell":128,"budget":10000}"#;
        let variants = [
            r#"{"kind":"parallel","alpha":2.6,"k":16,"ell":128,"budget":10000}"#,
            r#"{"kind":"parallel","alpha":2.5,"k":17,"ell":128,"budget":10000}"#,
            r#"{"kind":"parallel","alpha":2.5,"k":16,"ell":129,"budget":10000}"#,
            r#"{"kind":"parallel","alpha":2.5,"k":16,"ell":128,"budget":10001}"#,
            r#"{"kind":"parallel","alpha":2.5,"k":16,"ell":128,"budget":10000,"seed":1}"#,
            r#"{"kind":"parallel","alpha":2.5,"k":16,"ell":128,"budget":10000,"trials":500}"#,
            r#"{"kind":"parallel","strategy":"uniform","k":16,"ell":128,"budget":10000}"#,
        ];
        let base_key = parse(base).unwrap().cache_key();
        for v in variants {
            assert_ne!(parse(v).unwrap().cache_key(), base_key, "collision for {v}");
        }
    }

    #[test]
    fn strategies_parse() {
        let q = parse(r#"{"kind":"parallel","strategy":"uniform","k":4,"ell":16,"budget":100}"#)
            .unwrap();
        assert_eq!(q.exponent, ExponentSpec::Uniform);
        let q = parse(
            r#"{"kind":"parallel","strategy":"uniform:2.1:2.9","k":4,"ell":16,"budget":100}"#,
        )
        .unwrap();
        assert_eq!(q.exponent, ExponentSpec::UniformRange { lo: 2.1, hi: 2.9 });
        let q = parse(r#"{"kind":"parallel","strategy":"optimal","k":4,"ell":16,"budget":100}"#)
            .unwrap();
        assert_eq!(q.exponent, ExponentSpec::Optimal);
        let q = parse(r#"{"kind":"search","strategy":"ballistic","k":4,"ell":16,"budget":100}"#)
            .unwrap();
        assert_eq!(q.search, Some(SearchSpec::Ballistic));
        let q = parse(r#"{"kind":"search","strategy":"mixture:8","k":4,"ell":16,"budget":100}"#)
            .unwrap();
        assert_eq!(q.search, Some(SearchSpec::Mixture(8)));
        let q = parse(r#"{"kind":"search","alpha":2.5,"k":4,"ell":16,"budget":100}"#).unwrap();
        assert_eq!(q.search, Some(SearchSpec::Levy(ExponentSpec::Fixed(2.5))));
    }

    #[test]
    fn adaptive_precision_parses() {
        let q = parse(
            r#"{"kind":"single_walk","alpha":2.5,"ell":8,"budget":100,
                "precision":{"absolute":0.02,"relative":0.2,"max_trials":5000}}"#,
        )
        .unwrap();
        let Estimator::Adaptive(p) = q.estimator else {
            panic!("expected adaptive estimator");
        };
        assert_eq!(p.absolute, 0.02);
        assert_eq!(p.max_trials, 5000);
    }

    #[test]
    fn invalid_queries_rejected() {
        for bad in [
            r#"{"alpha":2.5,"ell":8,"budget":100}"#, // no kind
            r#"{"kind":"mystery","alpha":2.5,"ell":8,"budget":100}"#, // bad kind
            r#"{"kind":"single_walk","ell":8,"budget":100}"#, // no alpha
            r#"{"kind":"single_walk","alpha":0.5,"ell":8,"budget":100}"#, // alpha <= 1
            r#"{"kind":"single_walk","alpha":2.5,"budget":100}"#, // no ell
            r#"{"kind":"single_walk","alpha":2.5,"ell":8}"#, // no budget
            r#"{"kind":"single_walk","alpha":2.5,"ell":0,"budget":100}"#, // ell 0
            r#"{"kind":"single_walk","alpha":2.5,"ell":8,"budget":0}"#, // budget 0
            r#"{"kind":"single_walk","alpha":2.5,"ell":8,"budget":100,"k":3}"#, // k != 1
            r#"{"kind":"parallel","alpha":2.5,"ell":8,"budget":100}"#, // no k
            r#"{"kind":"parallel","alpha":2.5,"strategy":"uniform","k":2,"ell":8,"budget":100}"#,
            r#"{"kind":"parallel","strategy":"bogus","k":2,"ell":8,"budget":100}"#,
            r#"{"kind":"single_walk","apha":2.5,"ell":8,"budget":100}"#, // typo field
            r#"{"kind":"single_walk","alpha":2.5,"ell":8,"budget":100,"trials":0}"#,
            r#"{"kind":"single_walk","alpha":2.5,"ell":8,"budget":100,"trials":10,
                "precision":{"absolute":0.1}}"#, // both spend rules
            r#"{"kind":"parallel","alpha":2.5,"k":1000,"ell":8,"budget":1000000000,
                "trials":1000000}"#, // cost cap
            r#"[1,2,3]"#, // not an object
        ] {
            assert!(parse(bad).is_err(), "accepted invalid query {bad}");
        }
    }

    #[test]
    fn fnv_vector_is_stable() {
        // Pinned: a change here silently invalidates every on-disk cache.
        assert_eq!(fnv1a_128_hex(b""), "6c62272e07bb014262b821756295c58d");
        assert_eq!(fnv1a_128_hex(b"a"), fnv1a_128_hex(b"a"));
        assert_ne!(fnv1a_128_hex(b"a"), fnv1a_128_hex(b"b"));
    }

    #[test]
    fn measurement_config_mirrors_query() {
        let q = parse(
            r#"{"kind":"parallel","alpha":2.5,"k":4,"ell":32,"budget":500,
                "trials":250,"seed":9,"placement":"east"}"#,
        )
        .unwrap();
        let c = q.measurement_config(2);
        assert_eq!(c.ell, 32);
        assert_eq!(c.budget, 500);
        assert_eq!(c.trials, 250);
        assert_eq!(c.seed, 9);
        assert_eq!(c.threads, 2);
        assert_eq!(c.placement, TargetPlacement::FixedEast);
    }
}
