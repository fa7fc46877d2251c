//! Accounting messages and the RDN-side reconciliation state.
//!
//! Each RPN's local service manager measures, per charging entity
//! (subscriber), the CPU time, disk time and response bytes its requests
//! actually consumed, and sends the RDN one [`UsageReport`] per accounting
//! cycle. The RDN reconciles each report against its predictions: balances
//! are corrected from predicted to actual, per-RPN estimated-usage arrays
//! and node outstanding loads shrink by the echoed predictions.

use crate::node::RpnId;
use crate::resource::ResourceVector;
use crate::subscriber::SubscriberId;

/// One subscriber's line in an accounting message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubscriberUsage {
    /// Whose requests.
    pub subscriber: SubscriberId,
    /// Resources actually consumed during the cycle.
    pub actual: ResourceVector,
    /// Sum of the *predicted* usage the RDN attached to the requests that
    /// completed during the cycle, echoed back so the RDN can retire
    /// exactly what it booked.
    pub settled_predicted: ResourceVector,
    /// Requests completed during the cycle.
    pub completed: u32,
}

/// An accounting-cycle message from one RPN to the RDN (paper §3.5).
#[derive(Debug, Clone, PartialEq)]
pub struct UsageReport {
    /// Reporting node.
    pub rpn: RpnId,
    /// Total resources consumed on the node during the cycle (all
    /// subscribers plus unattributed overhead).
    pub total: ResourceVector,
    /// Predicted-units work dispatched to this node but not yet complete,
    /// as the node itself sees it. The RDN *sets* its estimated
    /// outstanding load from this, so estimate drift cannot accumulate —
    /// incremental settling alone leaves the level wherever transients
    /// pushed it.
    pub outstanding_predicted: ResourceVector,
    /// Per-subscriber breakdown.
    pub per_subscriber: Vec<SubscriberUsage>,
}

impl SubscriberUsage {
    /// Serializes one report line to JSON.
    pub fn to_json(&self) -> gage_json::Json {
        gage_json::Json::obj([
            ("subscriber", gage_json::Json::from(self.subscriber.0)),
            ("actual", self.actual.to_json()),
            ("settled_predicted", self.settled_predicted.to_json()),
            ("completed", gage_json::Json::from(self.completed)),
        ])
    }

    /// Reads a line written by [`SubscriberUsage::to_json`].
    pub fn from_json(v: &gage_json::Json) -> Option<Self> {
        Some(SubscriberUsage {
            subscriber: SubscriberId(u32::try_from(v.get("subscriber")?.as_u64()?).ok()?),
            actual: ResourceVector::from_json(v.get("actual")?)?,
            settled_predicted: ResourceVector::from_json(v.get("settled_predicted")?)?,
            completed: u32::try_from(v.get("completed")?.as_u64()?).ok()?,
        })
    }
}

impl UsageReport {
    /// An empty report (an idle cycle heartbeat).
    pub fn empty(rpn: RpnId) -> Self {
        UsageReport {
            rpn,
            total: ResourceVector::ZERO,
            outstanding_predicted: ResourceVector::ZERO,
            per_subscriber: Vec::new(),
        }
    }

    /// Total completed requests across subscribers.
    pub fn completed_requests(&self) -> u32 {
        self.per_subscriber.iter().map(|s| s.completed).sum()
    }

    /// Serializes the report to JSON (the control-protocol wire form).
    pub fn to_json(&self) -> gage_json::Json {
        gage_json::Json::obj([
            ("rpn", gage_json::Json::from(self.rpn.0)),
            ("total", self.total.to_json()),
            (
                "outstanding_predicted",
                self.outstanding_predicted.to_json(),
            ),
            (
                "per_subscriber",
                gage_json::Json::Arr(
                    self.per_subscriber
                        .iter()
                        .map(SubscriberUsage::to_json)
                        .collect(),
                ),
            ),
        ])
    }

    /// Reads a report written by [`UsageReport::to_json`]. A missing
    /// `outstanding_predicted` field reads as zero (older senders).
    pub fn from_json(v: &gage_json::Json) -> Option<Self> {
        let per_subscriber = v
            .get("per_subscriber")?
            .as_array()?
            .iter()
            .map(SubscriberUsage::from_json)
            .collect::<Option<Vec<_>>>()?;
        Some(UsageReport {
            rpn: RpnId(u16::try_from(v.get("rpn")?.as_u64()?).ok()?),
            total: ResourceVector::from_json(v.get("total")?)?,
            outstanding_predicted: match v.get("outstanding_predicted") {
                Some(o) => ResourceVector::from_json(o)?,
                None => ResourceVector::ZERO,
            },
            per_subscriber,
        })
    }
}

/// RDN-side per-subscriber accounting state: the credit balance and the
/// estimated resource usage array (one in-flight prediction sum per RPN).
#[derive(Debug, Clone)]
pub struct SubscriberAccount {
    /// Spendable credit. Grows by reservation each scheduling cycle, shrinks
    /// by predicted usage at dispatch, and is corrected (predicted → actual)
    /// when reports arrive.
    pub balance: ResourceVector,
    /// `estimated[rpn]` = predicted usage of this subscriber's pending
    /// requests on that RPN.
    pub estimated: Vec<ResourceVector>,
    /// Lifetime dispatched requests.
    pub dispatched: u64,
    /// Lifetime completed requests (from reports).
    pub completed: u64,
}

impl SubscriberAccount {
    /// Creates a zeroed account spanning `rpn_count` nodes.
    pub fn new(rpn_count: usize) -> Self {
        SubscriberAccount {
            balance: ResourceVector::ZERO,
            estimated: vec![ResourceVector::ZERO; rpn_count],
            dispatched: 0,
            completed: 0,
        }
    }

    /// Books a dispatch of `predicted` to `rpn`.
    pub fn book_dispatch(&mut self, rpn: RpnId, predicted: ResourceVector) {
        self.balance -= predicted;
        self.estimated[rpn.0 as usize] += predicted;
        self.dispatched += 1;
    }

    /// Applies one report line: retires the echoed predictions and replaces
    /// them with actual usage in the balance.
    pub fn apply_usage(&mut self, rpn: RpnId, usage: &SubscriberUsage) {
        let est = &mut self.estimated[rpn.0 as usize];
        // Retire no more than we booked (guards against duplicated reports).
        let retire = usage.settled_predicted.min(*est).clamped_nonnegative();
        *est = (*est - retire).clamped_nonnegative();
        // Correction: we debited `retire` in predictions; the truth was
        // `actual`. Net adjustment returns the prediction and charges the
        // actual.
        self.balance += retire - usage.actual;
        self.completed += u64::from(usage.completed);
    }

    /// Predicted usage still in flight across all RPNs.
    pub fn total_estimated(&self) -> ResourceVector {
        self.estimated.iter().copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn usage(actual: ResourceVector, settled: ResourceVector, n: u32) -> SubscriberUsage {
        SubscriberUsage {
            subscriber: SubscriberId(0),
            actual,
            settled_predicted: settled,
            completed: n,
        }
    }

    #[test]
    fn dispatch_then_exact_report_restores_balance_to_actual() {
        let mut acc = SubscriberAccount::new(2);
        let pred = ResourceVector::generic_request();
        acc.balance = pred * 3.0;
        acc.book_dispatch(RpnId(1), pred);
        assert_eq!(acc.balance, pred * 2.0);
        assert_eq!(acc.total_estimated(), pred);

        // Actual usage was half the prediction.
        let actual = pred * 0.5;
        acc.apply_usage(RpnId(1), &usage(actual, pred, 1));
        // Balance = 3*pred - pred + (pred - 0.5*pred) = 2.5*pred.
        assert_eq!(acc.balance, pred * 2.5);
        assert_eq!(acc.total_estimated(), ResourceVector::ZERO);
        assert_eq!(acc.completed, 1);
    }

    #[test]
    fn over_reporting_is_clamped() {
        let mut acc = SubscriberAccount::new(1);
        let pred = ResourceVector::generic_request();
        acc.book_dispatch(RpnId(0), pred);
        // A buggy/duplicate report claims twice the booked prediction.
        acc.apply_usage(RpnId(0), &usage(pred, pred * 2.0, 1));
        // Only the booked amount is retired; estimated never goes negative.
        assert_eq!(acc.total_estimated(), ResourceVector::ZERO);
        assert_eq!(acc.balance, -pred + pred - pred + ResourceVector::ZERO);
    }

    #[test]
    fn usage_heavier_than_predicted_pushes_balance_negative() {
        let mut acc = SubscriberAccount::new(1);
        let pred = ResourceVector::generic_request();
        acc.balance = pred; // one request's worth of credit
        acc.book_dispatch(RpnId(0), pred);
        let actual = pred * 4.0; // request was 4x heavier than predicted
        acc.apply_usage(RpnId(0), &usage(actual, pred, 1));
        assert!(acc.balance.any_negative(), "debt carried forward");
    }

    #[test]
    fn report_helpers() {
        let mut r = UsageReport::empty(RpnId(3));
        assert_eq!(r.completed_requests(), 0);
        r.per_subscriber
            .push(usage(ResourceVector::ZERO, ResourceVector::ZERO, 5));
        r.per_subscriber
            .push(usage(ResourceVector::ZERO, ResourceVector::ZERO, 2));
        assert_eq!(r.completed_requests(), 7);
    }

    #[test]
    fn json_round_trip() {
        let r = UsageReport {
            rpn: RpnId(1),
            total: ResourceVector::new(1.0, 2.0, 3.0),
            outstanding_predicted: ResourceVector::new(9.0, 9.0, 9.0),
            per_subscriber: vec![usage(
                ResourceVector::new(1.0, 2.0, 3.0),
                ResourceVector::new(4.0, 5.0, 6.0),
                9,
            )],
        };
        let text = r.to_json().to_string();
        let back =
            UsageReport::from_json(&gage_json::parse(&text).expect("parses")).expect("well-formed");
        assert_eq!(back, r);
    }

    #[test]
    fn json_missing_outstanding_defaults_to_zero() {
        let mut v = UsageReport::empty(RpnId(2)).to_json();
        if let gage_json::Json::Obj(pairs) = &mut v {
            pairs.retain(|(k, _)| k != "outstanding_predicted");
        }
        let back = UsageReport::from_json(&v).expect("still parses");
        assert_eq!(back.outstanding_predicted, ResourceVector::ZERO);
    }
}
