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
//! `timeout_ms`) are excluded from the canonical form, and
//! [`Query::from_canonical`] is its exact inverse.
//!
//! The query model is `levy-wire`'s: `Query`'s fields are the
//! [`levy_wire`] enums, whose JSON spellings live here as private
//! functions, so JSON and the binary wire render one set of types.

use levy_rng::ExponentStrategy;
use levy_sim::{Json, MeasurementConfig, Precision, TargetPlacement};
use levy_wire::{Estimator, Exponent, Placement, QueryKind, Search};

/// Hard cap on `trials · budget · k` — rejects requests whose worst-case
/// step count would monopolize the daemon (HTTP 400, not a queue slot).
pub const MAX_REQUEST_COST: u128 = 200_000_000_000;

/// Range limits on `k`, `ell` and `budget`.
const MAX_K: u64 = 1 << 20;
const MAX_ELL: u64 = 1 << 32;
const MAX_BUDGET: u64 = 1 << 40;

/// A validated, canonicalized simulation query.
///
/// The field types are `levy-wire`'s, so a query moves into and out of a
/// binary [`levy_wire::QueryFrame`] field by field.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Simulation family.
    pub kind: QueryKind,
    /// Exponent selection (`single_*` require `Fixed`; a search query
    /// mirrors its Lévy spec here, or `Uniform` for other families).
    pub exponent: Exponent,
    /// Search family for `kind = "search"`, `None` otherwise.
    pub search: Option<Search>,
    /// Number of parallel agents (forced to 1 for `single_*`).
    pub k: u64,
    /// Target distance `ℓ`.
    pub ell: u64,
    /// Step budget (right-censoring point).
    pub budget: u64,
    /// Target placement rule.
    pub placement: Placement,
    /// Spend rule: a fixed trial count or an adaptive precision target.
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

fn required<T>(value: Option<T>, key: &str) -> Result<T, QueryError> {
    value.ok_or_else(|| err(format!("missing required field '{key}'")))
}

/// Rejects a non-object (with `not_object`) and any key outside `known`
/// (as an unknown `what`), so a typo (`"apha"`) fails loudly instead of
/// silently running the default.
fn known_fields(
    body: &Json,
    known: &[&str],
    what: &str,
    not_object: &str,
) -> Result<(), QueryError> {
    let Some(pairs) = body.as_object() else {
        return Err(err(not_object));
    };
    match pairs.iter().find(|(key, _)| !known.contains(&key.as_str())) {
        Some((key, _)) => Err(err(format!("unknown {what} '{key}'"))),
        None => Ok(()),
    }
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

const QUERY_SCHEMA: &str = "levy-served/query-v1";

fn kind_name(kind: QueryKind) -> &'static str {
    match kind {
        QueryKind::SingleWalk => "single_walk",
        QueryKind::SingleFlight => "single_flight",
        QueryKind::Parallel => "parallel",
        QueryKind::Search => "search",
    }
}

fn parse_kind(s: &str) -> Result<QueryKind, QueryError> {
    match s {
        "single_walk" => Ok(QueryKind::SingleWalk),
        "single_flight" => Ok(QueryKind::SingleFlight),
        "parallel" => Ok(QueryKind::Parallel),
        "search" => Ok(QueryKind::Search),
        _ => Err(err(format!(
            "unknown kind '{s}' (expected single_walk, single_flight, parallel, or search)"
        ))),
    }
}

fn placement_name(placement: Placement) -> &'static str {
    match placement {
        Placement::RandomDirection => "random",
        Placement::FixedEast => "east",
    }
}

fn parse_placement(s: &str) -> Result<Placement, QueryError> {
    match s {
        "random" => Ok(Placement::RandomDirection),
        "east" => Ok(Placement::FixedEast),
        _ => Err(err(format!("unknown placement '{s}'"))),
    }
}

/// Canonical string form of an exponent spec (what the cache key hashes).
fn exponent_name(exponent: &Exponent) -> String {
    match exponent {
        Exponent::Fixed(alpha) => format!("fixed:{alpha}"),
        Exponent::Uniform => "uniform".into(),
        Exponent::UniformRange { lo, hi } => format!("uniform:{lo}:{hi}"),
        Exponent::Optimal => "optimal".into(),
    }
}

/// Parses a strategy string into an exponent spec. Syntax only: the
/// range limits live in [`Query::validate`].
fn parse_exponent(s: &str) -> Result<Exponent, QueryError> {
    if s == "uniform" {
        return Ok(Exponent::Uniform);
    }
    if s == "optimal" {
        return Ok(Exponent::Optimal);
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
        return Ok(Exponent::UniformRange { lo, hi });
    }
    if let Some(alpha) = s.strip_prefix("fixed:") {
        let alpha = alpha
            .parse::<f64>()
            .map_err(|_| err("invalid fixed exponent"))?;
        return Ok(Exponent::Fixed(alpha));
    }
    Err(err(format!(
        "unknown strategy '{s}' (expected 'uniform', 'uniform:LO:HI', 'optimal', or 'fixed:A')"
    )))
}

/// Canonical string form of a search family.
fn search_name(search: &Search) -> String {
    match search {
        Search::Levy(exponent) => format!("levy/{}", exponent_name(exponent)),
        Search::Ballistic => "ballistic".into(),
        Search::RandomWalk => "random_walk".into(),
        Search::Mixture(n) => format!("mixture:{n}"),
    }
}

/// The `exponent` field of a search query: its Lévy spec, or the unused
/// uniform default for the other families.
fn search_exponent(search: &Search) -> Exponent {
    match search {
        Search::Levy(exponent) => *exponent,
        _ => Exponent::Uniform,
    }
}

/// Per-kind strategy resolution shared by [`Query::from_json`] and
/// [`Query::from_canonical`]: the exponent the walks of `kind` use and,
/// for `search`, the family. A Lévy search spells its exponent spec
/// behind `levy_prefix`: bare in a request (`"optimal"`), `levy/` in the
/// canonical form (`"levy/optimal"`).
fn resolve_strategy(
    kind: QueryKind,
    strategy: &str,
    levy_prefix: &str,
) -> Result<(Exponent, Option<Search>), QueryError> {
    if kind != QueryKind::Search {
        return Ok((parse_exponent(strategy)?, None));
    }
    let search = match strategy {
        "ballistic" => Search::Ballistic,
        "random_walk" => Search::RandomWalk,
        s if s.starts_with("mixture:") => Search::Mixture(
            s["mixture:".len()..]
                .parse::<u64>()
                .map_err(|_| err("invalid mixture palette size"))?,
        ),
        s => s
            .strip_prefix(levy_prefix)
            .and_then(|spec| parse_exponent(spec).ok())
            .map(Search::Levy)
            .ok_or_else(|| {
                err(format!(
                    "unknown search strategy '{s}' (expected levy, ballistic, \
                     random_walk, mixture:N, or an exponent spec)"
                ))
            })?,
    };
    Ok((search_exponent(&search), Some(search)))
}

fn validate_exponent(exponent: &Exponent) -> Result<(), QueryError> {
    match exponent {
        Exponent::Fixed(alpha) => {
            if !(alpha.is_finite() && *alpha > 1.0 && *alpha <= 10.0) {
                return Err(err("alpha must lie in (1, 10]"));
            }
        }
        Exponent::UniformRange { lo, hi } => {
            if !(lo.is_finite() && hi.is_finite() && 1.0 < *lo && lo < hi) {
                return Err(err("uniform range must satisfy 1 < lo < hi"));
            }
        }
        Exponent::Uniform | Exponent::Optimal => {}
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
        known_fields(body, KNOWN, "field", "request body must be a JSON object")?;
        let kind = parse_kind(required(field_str(body, "kind")?, "kind")?)?;
        let alpha = field_f64(body, "alpha")?;
        let strategy = field_str(body, "strategy")?;
        let k = field_u64(body, "k")?;
        let ell = required(field_u64(body, "ell")?, "ell")?;
        let budget = required(field_u64(body, "budget")?, "budget")?;
        let seed = field_u64(body, "seed")?.unwrap_or(0);
        let timeout_ms = field_u64(body, "timeout_ms")?;

        let (exponent, search, k) = match kind {
            QueryKind::SingleWalk | QueryKind::SingleFlight => {
                if strategy.is_some() {
                    return Err(err(
                        "single_walk/single_flight take 'alpha', not 'strategy'",
                    ));
                }
                let alpha = required(alpha, "alpha")?;
                (Exponent::Fixed(alpha), None, k.unwrap_or(1))
            }
            QueryKind::Parallel => {
                let k = required(k, "k")?;
                let (exponent, search) = match (alpha, strategy) {
                    (Some(_), Some(_)) => {
                        return Err(err("provide exactly one of 'alpha' or 'strategy'"))
                    }
                    (Some(alpha), None) => (Exponent::Fixed(alpha), None),
                    (None, Some(s)) => resolve_strategy(kind, s, "")?,
                    (None, None) => return Err(err("parallel queries need 'alpha' or 'strategy'")),
                };
                (exponent, search, k)
            }
            QueryKind::Search => {
                let k = required(k, "k")?;
                let (exponent, search) = match strategy {
                    None | Some("levy") => {
                        let spec = alpha.map_or(Exponent::Uniform, Exponent::Fixed);
                        (spec, Some(Search::Levy(spec)))
                    }
                    Some(s) => resolve_strategy(kind, s, "")?,
                };
                (exponent, search, k)
            }
        };

        let placement = field_str(body, "placement")?
            .map_or(Ok(Placement::RandomDirection), parse_placement)?;

        // Estimator: fixed trials (default 400) xor adaptive precision.
        let trials = field_u64(body, "trials")?;
        let estimator = match body.get("precision") {
            None | Some(Json::Null) => Estimator::Trials(trials.unwrap_or(400)),
            Some(p) => {
                if trials.is_some() {
                    return Err(err("provide exactly one of 'trials' or 'precision'"));
                }
                known_fields(
                    p,
                    &["absolute", "relative", "max_trials"],
                    "precision field",
                    "'precision' must be an object",
                )?;
                Estimator::Adaptive {
                    absolute: field_f64(p, "absolute")?.unwrap_or(0.01),
                    relative: field_f64(p, "relative")?.unwrap_or(0.10),
                    max_trials: field_u64(p, "max_trials")?.unwrap_or(1 << 20),
                }
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

    /// Parses the canonical form back into a query: the exact inverse of
    /// [`canonical`](Query::canonical), which accepts what `canonical`
    /// emits and nothing else (request-only spellings such as `alpha`,
    /// `trials` or a bare Lévy search spec are rejected), then
    /// [`validate`](Query::validate)s it.
    ///
    /// Result envelopes embed this form; the wire encoder and the
    /// disk-tier and replica-write checks read it back through here.
    pub fn from_canonical(canonical: &Json) -> Result<Query, QueryError> {
        const KNOWN: &[&str] = &[
            "schema",
            "kind",
            "strategy",
            "k",
            "ell",
            "budget",
            "placement",
            "estimator",
            "seed",
        ];
        known_fields(
            canonical,
            KNOWN,
            "canonical field",
            "canonical query must be a JSON object",
        )?;
        if field_str(canonical, "schema")? != Some(QUERY_SCHEMA) {
            return Err(err(format!("canonical query schema is not {QUERY_SCHEMA}")));
        }
        let kind = parse_kind(required(field_str(canonical, "kind")?, "kind")?)?;
        let strategy = required(field_str(canonical, "strategy")?, "strategy")?;
        let (exponent, search) = resolve_strategy(kind, strategy, "levy/")?;
        let estimator = required(canonical.get("estimator"), "estimator")?;
        let estimator = match required(field_str(estimator, "mode")?, "mode")? {
            "trials" => {
                known_fields(
                    estimator,
                    &["mode", "trials"],
                    "estimator field",
                    "'estimator' must be an object",
                )?;
                Estimator::Trials(required(field_u64(estimator, "trials")?, "trials")?)
            }
            "adaptive" => {
                known_fields(
                    estimator,
                    &["mode", "absolute", "relative", "max_trials"],
                    "estimator field",
                    "'estimator' must be an object",
                )?;
                Estimator::Adaptive {
                    absolute: required(field_f64(estimator, "absolute")?, "absolute")?,
                    relative: required(field_f64(estimator, "relative")?, "relative")?,
                    max_trials: required(field_u64(estimator, "max_trials")?, "max_trials")?,
                }
            }
            mode => return Err(err(format!("unknown estimator mode '{mode}'"))),
        };
        let query = Query {
            kind,
            exponent,
            search,
            k: required(field_u64(canonical, "k")?, "k")?,
            ell: required(field_u64(canonical, "ell")?, "ell")?,
            budget: required(field_u64(canonical, "budget")?, "budget")?,
            placement: parse_placement(required(field_str(canonical, "placement")?, "placement")?)?,
            estimator,
            seed: required(field_u64(canonical, "seed")?, "seed")?,
            timeout_ms: None,
        };
        query.validate()?;
        Ok(query)
    }

    /// Checks every limit of a query: ranges of ell, budget, k, alpha and
    /// uniform endpoints, the mixture palette size, the spend (trials or
    /// precision), the per-kind shape, and the `trials · budget · k` cost
    /// cap. [`from_json`](Query::from_json) and
    /// [`from_canonical`](Query::from_canonical) call it after parsing,
    /// and decoders that build the struct directly (the binary wire path)
    /// call it themselves.
    pub fn validate(&self) -> Result<(), QueryError> {
        if !(1..=MAX_ELL).contains(&self.ell) {
            return Err(err(format!("ell must lie in [1, {MAX_ELL}]")));
        }
        if !(1..=MAX_BUDGET).contains(&self.budget) {
            return Err(err(format!("budget must lie in [1, {MAX_BUDGET}]")));
        }
        validate_exponent(&self.exponent)?;
        match self.kind {
            QueryKind::SingleWalk | QueryKind::SingleFlight => {
                if self.k != 1 {
                    return Err(err("single_walk/single_flight require k = 1"));
                }
                if !matches!(self.exponent, Exponent::Fixed(_)) {
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
            QueryKind::Search => {
                let Some(search) = &self.search else {
                    return Err(err("search queries need a search strategy"));
                };
                if self.exponent != search_exponent(search) {
                    return Err(err("a search query's exponent must mirror its strategy"));
                }
                if let Search::Mixture(n) = search {
                    if !(1..=64).contains(n) {
                        return Err(err("mixture palette size must lie in [1, 64]"));
                    }
                }
            }
        }
        if !(1..=MAX_K).contains(&self.k) {
            return Err(err(format!("k must lie in [1, {MAX_K}]")));
        }
        let spend = match self.estimator {
            Estimator::Trials(trials) => {
                if trials == 0 {
                    return Err(err("trials must be at least 1"));
                }
                trials
            }
            Estimator::Adaptive {
                absolute,
                relative,
                max_trials,
            } => {
                if !(absolute.is_finite()
                    && absolute > 0.0
                    && relative.is_finite()
                    && relative >= 0.0
                    && max_trials >= 1)
                {
                    return Err(err(
                        "precision needs absolute > 0, relative >= 0, max_trials >= 1",
                    ));
                }
                max_trials
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
            Some(search) => search_name(search),
            None => exponent_name(&self.exponent),
        };
        let estimator = match self.estimator {
            Estimator::Trials(trials) => Json::obj([
                ("mode", Json::from("trials")),
                ("trials", Json::from(trials)),
            ]),
            Estimator::Adaptive {
                absolute,
                relative,
                max_trials,
            } => Json::obj([
                ("mode", Json::from("adaptive")),
                ("absolute", Json::from(absolute)),
                ("relative", Json::from(relative)),
                ("max_trials", Json::from(max_trials)),
            ]),
        };
        Json::obj([
            ("schema", Json::from(QUERY_SCHEMA)),
            ("kind", Json::from(kind_name(self.kind))),
            ("strategy", Json::from(strategy)),
            ("k", Json::from(self.k)),
            ("ell", Json::from(self.ell)),
            ("budget", Json::from(self.budget)),
            ("placement", Json::from(placement_name(self.placement))),
            ("estimator", estimator),
            ("seed", Json::from(self.seed)),
        ])
    }

    /// The content-addressed cache key: FNV-1a-128 over the compact
    /// canonical form, as 32 lowercase hex digits.
    pub fn cache_key(&self) -> String {
        fnv1a_128_hex(self.canonical().to_string_compact().as_bytes())
    }

    /// The `ExponentStrategy` the query's Lévy walks draw from. For a
    /// Lévy search this is the family's spec, which
    /// [`validate`](Query::validate) keeps mirrored in `exponent`.
    pub fn exponent_strategy(&self) -> ExponentStrategy {
        match self.exponent {
            Exponent::Fixed(alpha) => ExponentStrategy::Fixed(alpha),
            Exponent::Uniform => ExponentStrategy::UniformSuperdiffusive,
            Exponent::UniformRange { lo, hi } => ExponentStrategy::UniformRange { lo, hi },
            Exponent::Optimal => ExponentStrategy::OptimalForScale {
                k: self.k,
                ell: self.ell,
            },
        }
    }

    /// The simulator's placement rule for the query's target.
    pub fn target_placement(&self) -> TargetPlacement {
        match self.placement {
            Placement::RandomDirection => TargetPlacement::RandomDirection,
            Placement::FixedEast => TargetPlacement::FixedEast,
        }
    }

    /// The adaptive estimator's stopping rule; `None` for fixed trials.
    pub fn precision(&self) -> Option<Precision> {
        match self.estimator {
            Estimator::Trials(_) => None,
            Estimator::Adaptive {
                absolute,
                relative,
                max_trials,
            } => Some(Precision {
                absolute,
                relative,
                max_trials,
            }),
        }
    }

    /// The `MeasurementConfig` this query runs under (fixed-trials mode;
    /// adaptive queries derive their own batch sizes).
    pub fn measurement_config(&self, threads: usize) -> MeasurementConfig {
        let trials = match self.estimator {
            Estimator::Trials(trials) => trials,
            Estimator::Adaptive { max_trials, .. } => max_trials,
        };
        let mut config = MeasurementConfig::new(self.ell, self.budget, trials, self.seed);
        config.threads = threads.max(1);
        config.placement = self.target_placement();
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
pub(crate) mod tests {
    use super::*;

    /// One request body per query shape: every kind, every exponent and
    /// search arm, both estimators, both placements, and a timeout.
    pub(crate) const KINDS: &[&str] = &[
        r#"{"kind":"parallel","strategy":"optimal","k":8,"ell":16,"budget":4000,"trials":300,"seed":42}"#,
        r#"{"kind":"parallel","alpha":2.5,"k":4,"ell":8,"budget":400,"trials":150,"seed":11}"#,
        r#"{"kind":"parallel","strategy":"uniform:1.5:2.5","k":4,"ell":8,"budget":400,"trials":60}"#,
        r#"{"kind":"single_walk","alpha":2.5,"ell":4,"budget":200,"trials":60,"placement":"east"}"#,
        r#"{"kind":"single_flight","alpha":2.2,"ell":4,"budget":200,"trials":60,"timeout_ms":1500}"#,
        r#"{"kind":"search","strategy":"ballistic","k":4,"ell":4,"budget":400,"trials":60}"#,
        r#"{"kind":"search","strategy":"mixture:4","k":4,"ell":4,"budget":400,"trials":60}"#,
        r#"{"kind":"search","strategy":"random_walk","k":4,"ell":4,"budget":400,"trials":60}"#,
        r#"{"kind":"search","alpha":2.2,"k":4,"ell":4,"budget":400,"trials":60}"#,
        r#"{"kind":"search","k":4,"ell":4,"budget":400,"trials":60}"#,
        r#"{"kind":"parallel","strategy":"optimal","k":8,"ell":16,"budget":4000,
            "precision":{"absolute":0.05,"relative":0.5,"max_trials":4096},"seed":7}"#,
    ];

    fn parse(body: &str) -> Result<Query, QueryError> {
        Query::from_json(&Json::parse(body).expect("valid JSON"))
    }

    #[test]
    fn minimal_parallel_query_validates() {
        let q =
            parse(r#"{"kind":"parallel","alpha":2.5,"k":16,"ell":128,"budget":10000}"#).unwrap();
        assert_eq!(q.kind, QueryKind::Parallel);
        assert_eq!(q.exponent, Exponent::Fixed(2.5));
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
        assert_eq!(q.exponent, Exponent::Uniform);
        let q = parse(
            r#"{"kind":"parallel","strategy":"uniform:2.1:2.9","k":4,"ell":16,"budget":100}"#,
        )
        .unwrap();
        assert_eq!(q.exponent, Exponent::UniformRange { lo: 2.1, hi: 2.9 });
        let q = parse(r#"{"kind":"parallel","strategy":"optimal","k":4,"ell":16,"budget":100}"#)
            .unwrap();
        assert_eq!(q.exponent, Exponent::Optimal);
        let q = parse(r#"{"kind":"search","strategy":"ballistic","k":4,"ell":16,"budget":100}"#)
            .unwrap();
        assert_eq!(q.search, Some(Search::Ballistic));
        let q = parse(r#"{"kind":"search","strategy":"mixture:8","k":4,"ell":16,"budget":100}"#)
            .unwrap();
        assert_eq!(q.search, Some(Search::Mixture(8)));
        let q = parse(r#"{"kind":"search","alpha":2.5,"k":4,"ell":16,"budget":100}"#).unwrap();
        assert_eq!(q.search, Some(Search::Levy(Exponent::Fixed(2.5))));
    }

    #[test]
    fn adaptive_precision_parses() {
        let q = parse(
            r#"{"kind":"single_walk","alpha":2.5,"ell":8,"budget":100,
                "precision":{"absolute":0.02,"relative":0.2,"max_trials":5000}}"#,
        )
        .unwrap();
        let Estimator::Adaptive {
            absolute,
            max_trials,
            ..
        } = q.estimator
        else {
            panic!("expected adaptive estimator");
        };
        assert_eq!(absolute, 0.02);
        assert_eq!(max_trials, 5000);
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

    #[test]
    fn from_canonical_inverts_canonical() {
        for body in KINDS {
            let q = parse(body).unwrap();
            let c = q.canonical();
            let back = Query::from_canonical(&c).expect(body);
            assert_eq!(back.canonical(), c, "{body}");
            assert_eq!(back.cache_key(), q.cache_key(), "{body}");
        }
    }

    /// `c` with `key` set to `value` (appended when absent).
    fn with_field(c: &Json, key: &str, value: Json) -> Json {
        let mut pairs = c.as_object().unwrap().to_vec();
        match pairs.iter_mut().find(|(k, _)| k == key) {
            Some(pair) => pair.1 = value,
            None => pairs.push((key.to_owned(), value)),
        }
        Json::obj(pairs)
    }

    #[test]
    fn from_canonical_rejects_what_canonical_never_emits() {
        let parallel = parse(KINDS[0]).unwrap().canonical();
        let search = parse(KINDS[9]).unwrap().canonical();
        let single = parse(KINDS[3]).unwrap().canonical();
        let estimator = |pairs: &[(&str, Json)]| Json::obj(pairs.iter().cloned());
        for (why, bad) in [
            (
                "wrong schema",
                with_field(&parallel, "schema", Json::from("levy-served/query-v2")),
            ),
            (
                "unknown estimator mode",
                with_field(
                    &parallel,
                    "estimator",
                    estimator(&[("mode", "bayesian".into()), ("trials", 300u64.into())]),
                ),
            ),
            (
                "levy/ prefix under kind parallel",
                with_field(&parallel, "strategy", Json::from("levy/uniform")),
            ),
            (
                "bare exponent spec under kind search",
                with_field(&search, "strategy", Json::from("uniform")),
            ),
            (
                "non-fixed single_walk strategy",
                with_field(&single, "strategy", Json::from("optimal")),
            ),
            (
                "request-only field",
                with_field(&parallel, "alpha", Json::from(2.5)),
            ),
            (
                "estimator field of the other mode",
                with_field(
                    &parallel,
                    "estimator",
                    estimator(&[
                        ("mode", "trials".into()),
                        ("trials", 300u64.into()),
                        ("absolute", 0.1.into()),
                    ]),
                ),
            ),
            ("missing seed", {
                let mut pairs = parallel.as_object().unwrap().to_vec();
                pairs.retain(|(k, _)| k != "seed");
                Json::obj(pairs)
            }),
            ("a request body", Json::parse(KINDS[0]).unwrap()),
        ] {
            assert!(
                Query::from_canonical(&bad).is_err(),
                "accepted {why}: {}",
                bad.to_string_compact()
            );
        }
    }

    #[test]
    fn search_exponent_must_mirror_the_strategy() {
        let mut q = parse(KINDS[5]).unwrap();
        assert_eq!(q.exponent, Exponent::Uniform);
        q.exponent = Exponent::Optimal;
        assert!(
            q.validate().is_err(),
            "ballistic search with a stray exponent"
        );
        let mut q = parse(KINDS[8]).unwrap();
        assert_eq!(q.search, Some(Search::Levy(Exponent::Fixed(2.2))));
        q.exponent = Exponent::Fixed(2.3);
        assert!(
            q.validate().is_err(),
            "Lévy search whose exponent disagrees"
        );
    }
}
