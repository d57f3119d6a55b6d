"""Association-rule refinement of drug-outcome signals in patient records.

The pipeline: ingest date-stamped coded events, build one deduplicated
item basket per patient, mine association rules under left-support and
confidence floors, enumerate drug-outcome signal instances, and filter
the instances whose outcome is explainable from the patient's prior
history, yielding a confounding-adjusted risk.
"""

from .baskets import BasketDatabase, build_database, pre_outcome_basket, pre_outcome_items
from .codes import (
    BnfCode,
    Item,
    ItemKind,
    ReadCode,
    bnf_level,
    bnf_truncate,
    gender_item,
    normalize_item,
    parse_bnf,
    parse_item,
    parse_read,
    read_level,
    read_parent,
    read_truncate,
)
from .errors import AdrRefineError, ConfigError, DomainError, ParseError
from .events import (
    EventRecord,
    EventStore,
    PatientInfo,
    active_months,
    apply_prescription_exclusions,
    eligible_patients,
    load,
)
from .mining import (
    AssociationRule,
    ContingencyTable,
    MiningConstraints,
    RuleMeasures,
    RuleTable,
    chi_squared,
    contingency_from_counts,
    mine_all_rules,
    mine_rules,
    read_rules_csv,
    read_rules_json,
    rule_measures,
    write_rules_csv,
    write_rules_json,
)
from .refine import (
    InstanceAssessment,
    SignalReport,
    absolute_risk,
    adjusted_risk,
    assess_instance,
    assess_instances,
    extract_hoi_rules,
    refine,
    rule_consequent,
    write_report_csv,
    write_report_json,
)
from .signals import (
    AbResult,
    SignalInstance,
    SignalSpec,
    ab_ratio,
    exposure_count,
    find_instances,
    load_signal_spec,
    read_instances_csv,
    write_instances_csv,
)
from .synth import (
    CatalogItem,
    PlantedAdr,
    PlantedConfounder,
    ScenarioConfig,
    daily_rate_for_presence,
    expected_filter_rate,
    generate,
    generate_store,
    load_scenario,
    read_ground_truth,
)

__version__ = "0.1.0"
