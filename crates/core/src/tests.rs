use std::sync::atomic::{AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use psc_filter::rfilter;
use psc_obvent::builtin;

use crate::{obvent, publish, subscribe, Domain, FilterSpec, PublishError, SubscribeError, UnsubscribeError};

obvent! {
    /// Fig. 2 base class.
    pub class StockObvent {
        company: String,
        price: f64,
        amount: u32,
    }
}

obvent! {
    pub class StockQuote extends StockObvent {}
}

obvent! {
    pub class StockRequest extends StockObvent {
        broker: String,
    }
}

fn quote(company: &str, price: f64, amount: u32) -> StockQuote {
    StockQuote::new(StockObvent::new(company.into(), price, amount))
}

fn counter_sub<O: psc_obvent::Obvent>(
    domain: &Domain,
    filter: FilterSpec<O>,
) -> (crate::Subscription, Arc<AtomicU32>) {
    let count = Arc::new(AtomicU32::new(0));
    let c = count.clone();
    let sub = domain.subscribe(filter, move |_o: O| {
        c.fetch_add(1, Ordering::SeqCst);
    });
    (sub, count)
}

mod primitives {
    use super::*;

    #[test]
    fn paper_section_2_3_3_example() {
        // "an interest in all stock quotes of the Telco group with a price
        // less than 100$"
        let domain = Domain::in_process();
        let offers = Arc::new(Mutex::new(Vec::new()));
        let sink = offers.clone();
        let s = subscribe!(domain, (q: StockQuote)
            where { price < 100.0 && company contains "Telco" }
            => {
                sink.lock().unwrap().push(*q.price());
            });
        s.activate().unwrap();

        publish!(domain, quote("Telco Mobiles", 80.0, 10)).unwrap();
        publish!(domain, quote("Telco Mobiles", 130.0, 10)).unwrap();
        publish!(domain, quote("Banco", 70.0, 10)).unwrap();
        domain.drain();
        assert_eq!(*offers.lock().unwrap(), vec![80.0]);
    }

    #[test]
    fn subscribe_without_filter_receives_everything() {
        let domain = Domain::in_process();
        let (s, count) = counter_sub::<StockQuote>(&domain, FilterSpec::accept_all());
        s.activate().unwrap();
        for i in 0..5 {
            publish!(domain, quote("X", i as f64, 1)).unwrap();
        }
        domain.drain();
        assert_eq!(count.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn local_filters_run_subscriber_side() {
        let domain = Domain::in_process();
        let hits = Arc::new(AtomicU32::new(0));
        let h = hits.clone();
        // A filter the rfilter! grammar cannot express: non-constant logic.
        let s = subscribe!(domain, (q: StockQuote)
            where local |q: &StockQuote| q.company().len().is_multiple_of(2)
            => {
                let _ = q;
                h.fetch_add(1, Ordering::SeqCst);
            });
        s.activate().unwrap();
        publish!(domain, quote("ab", 1.0, 1)).unwrap(); // len 2: pass
        publish!(domain, quote("abc", 1.0, 1)).unwrap(); // len 3: reject
        domain.drain();
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn remote_and_local_filters_compose() {
        let domain = Domain::in_process();
        let (s, count) = counter_sub::<StockQuote>(
            &domain,
            FilterSpec::remote(rfilter!(price < 100.0))
                .and_local(|q: &StockQuote| q.company().starts_with('T')),
        );
        s.activate().unwrap();
        publish!(domain, quote("Telco", 50.0, 1)).unwrap(); // both pass
        publish!(domain, quote("Telco", 150.0, 1)).unwrap(); // remote fails
        publish!(domain, quote("Banco", 50.0, 1)).unwrap(); // local fails
        domain.drain();
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn handler_receives_owned_clone_per_delivery() {
        // §2.1.2 local uniqueness: two notifiables in the same address
        // space each get their own copy.
        let domain = Domain::in_process();
        let seen1 = Arc::new(Mutex::new(Vec::new()));
        let seen2 = Arc::new(Mutex::new(Vec::new()));
        let (c1, c2) = (seen1.clone(), seen2.clone());
        let s1 = domain.subscribe(FilterSpec::accept_all(), move |q: StockQuote| {
            c1.lock().unwrap().push(q); // takes ownership — it's a clone
        });
        let s2 = domain.subscribe(FilterSpec::accept_all(), move |q: StockQuote| {
            c2.lock().unwrap().push(q);
        });
        s1.activate().unwrap();
        s2.activate().unwrap();
        publish!(domain, quote("T", 1.0, 1)).unwrap();
        domain.drain();
        assert_eq!(seen1.lock().unwrap().len(), 1);
        assert_eq!(seen2.lock().unwrap().len(), 1);
        // Republish: new copies again.
        publish!(domain, quote("T", 1.0, 1)).unwrap();
        domain.drain();
        assert_eq!(seen1.lock().unwrap().len(), 2);
    }
}

mod type_based_dispatch {
    use super::*;

    #[test]
    fn supertype_subscription_receives_subtypes() {
        // Fig. 1: subscribing to StockObvent captures quotes and requests.
        let domain = Domain::in_process();
        let kinds = Arc::new(Mutex::new(Vec::new()));
        let sink = kinds.clone();
        let s = domain.subscribe(FilterSpec::accept_all(), move |o: StockObvent| {
            sink.lock().unwrap().push(o.company().clone());
        });
        s.activate().unwrap();
        publish!(domain, quote("FromQuote", 1.0, 1)).unwrap();
        publish!(
            domain,
            StockRequest::new(StockObvent::new("FromRequest".into(), 2.0, 2), "bob".into())
        )
        .unwrap();
        publish!(domain, StockObvent::new("FromBase".into(), 3.0, 3)).unwrap();
        domain.drain();
        let got = kinds.lock().unwrap().clone();
        assert_eq!(got.len(), 3);
        assert!(got.contains(&"FromQuote".to_string()));
        assert!(got.contains(&"FromRequest".to_string()));
    }

    #[test]
    fn sibling_subscription_does_not_receive() {
        let domain = Domain::in_process();
        let (s, count) = counter_sub::<StockRequest>(&domain, FilterSpec::accept_all());
        s.activate().unwrap();
        publish!(domain, quote("T", 1.0, 1)).unwrap();
        domain.drain();
        assert_eq!(count.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn filters_apply_to_inherited_properties() {
        let domain = Domain::in_process();
        let (s, count) = counter_sub::<StockRequest>(
            &domain,
            FilterSpec::remote(rfilter!(price > 10.0 && broker == "alice")),
        );
        s.activate().unwrap();
        publish!(
            domain,
            StockRequest::new(StockObvent::new("X".into(), 20.0, 1), "alice".into())
        )
        .unwrap();
        publish!(
            domain,
            StockRequest::new(StockObvent::new("X".into(), 20.0, 1), "bob".into())
        )
        .unwrap();
        domain.drain();
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn view_subscription_to_interface_kind() {
        obvent! {
            pub class ReliableAlert implements [psc_obvent::builtin::Reliable] {
                message: String,
            }
        }
        let domain = Domain::in_process();
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = seen.clone();
        let s = domain.subscribe_view(
            builtin::reliable_kind(),
            FilterSpec::accept_all(),
            move |view| {
                sink.lock().unwrap().push(view.string_at("message").unwrap());
            },
        );
        s.activate().unwrap();
        publish!(domain, ReliableAlert::new("disk full".into())).unwrap();
        publish!(domain, quote("NotReliable", 1.0, 1)).unwrap();
        domain.drain();
        assert_eq!(*seen.lock().unwrap(), vec!["disk full".to_string()]);
    }

    #[test]
    fn view_subscription_with_remote_filter() {
        let domain = Domain::in_process();
        let count = Arc::new(AtomicU32::new(0));
        let c = count.clone();
        let s = domain.subscribe_view(
            StockObvent::kind(),
            FilterSpec::remote(rfilter!(price >= 5.0)),
            move |_view| {
                c.fetch_add(1, Ordering::SeqCst);
            },
        );
        s.activate().unwrap();
        publish!(domain, quote("A", 10.0, 1)).unwrap();
        publish!(domain, quote("B", 1.0, 1)).unwrap();
        domain.drain();
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }
}

mod handles {
    use super::*;

    #[test]
    fn activation_lifecycle_matches_paper_semantics() {
        let domain = Domain::in_process();
        let (s, count) = counter_sub::<StockQuote>(&domain, FilterSpec::accept_all());

        // Inactive until activate(): no deliveries.
        publish!(domain, quote("T", 1.0, 1)).unwrap();
        domain.drain();
        assert_eq!(count.load(Ordering::SeqCst), 0);
        assert!(!s.is_active());

        s.activate().unwrap();
        assert!(s.is_active());
        // Double activation: CannotSubscribe.
        assert_eq!(s.activate(), Err(SubscribeError::AlreadyActive));

        publish!(domain, quote("T", 1.0, 1)).unwrap();
        domain.drain();
        assert_eq!(count.load(Ordering::SeqCst), 1);

        s.deactivate().unwrap();
        assert!(!s.is_active());
        // Double deactivation: CannotUnsubscribe.
        assert_eq!(s.deactivate(), Err(UnsubscribeError::NotActive));

        // "interleavingly performed an unlimited number of times" (§3.4.2).
        s.activate().unwrap();
        publish!(domain, quote("T", 1.0, 1)).unwrap();
        domain.drain();
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn durable_ids_are_exclusive_while_active() {
        let domain = Domain::in_process();
        let (s1, _c1) = counter_sub::<StockQuote>(&domain, FilterSpec::accept_all());
        let (s2, _c2) = counter_sub::<StockQuote>(&domain, FilterSpec::accept_all());
        s1.activate_with_id(77).unwrap();
        assert_eq!(s2.activate_with_id(77), Err(SubscribeError::DurableIdInUse(77)));
        s1.deactivate().unwrap();
        s2.activate_with_id(77).unwrap();
    }

    #[test]
    fn dropping_the_handle_unsubscribes() {
        let domain = Domain::in_process();
        let (s, count) = counter_sub::<StockQuote>(&domain, FilterSpec::accept_all());
        s.activate().unwrap();
        assert_eq!(domain.active_subscriptions(), 1);
        drop(s);
        assert_eq!(domain.active_subscriptions(), 0);
        publish!(domain, quote("T", 1.0, 1)).unwrap();
        domain.drain();
        assert_eq!(count.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn detach_keeps_the_subscription() {
        let domain = Domain::in_process();
        let (s, count) = counter_sub::<StockQuote>(&domain, FilterSpec::accept_all());
        s.activate().unwrap();
        s.detach();
        publish!(domain, quote("T", 1.0, 1)).unwrap();
        domain.drain();
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn deactivation_from_inside_a_handler_is_possible() {
        // §3.4.2: "subscriptions can be cancelled also from inside a
        // subscription" — the handle lives outside the handler's block.
        let domain = Domain::in_process();
        let slot: Arc<Mutex<Option<crate::Subscription>>> = Arc::new(Mutex::new(None));
        let slot2 = slot.clone();
        let count = Arc::new(AtomicU32::new(0));
        let c = count.clone();
        let s = domain.subscribe(FilterSpec::accept_all(), move |_q: StockQuote| {
            c.fetch_add(1, Ordering::SeqCst);
            // First event supersedes all following ones: unsubscribe.
            if let Some(handle) = slot2.lock().unwrap().as_ref() {
                let _ = handle.deactivate();
            }
        });
        s.activate().unwrap();
        *slot.lock().unwrap() = Some(s);
        publish!(domain, quote("T", 1.0, 1)).unwrap();
        domain.drain();
        publish!(domain, quote("T", 2.0, 1)).unwrap();
        domain.drain();
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn closed_domain_rejects_operations() {
        let domain = Domain::in_process();
        let (s, _count) = counter_sub::<StockQuote>(&domain, FilterSpec::accept_all());
        domain.close();
        assert_eq!(
            publish!(domain, quote("T", 1.0, 1)),
            Err(PublishError::DomainClosed)
        );
        assert_eq!(s.activate(), Err(SubscribeError::DomainClosed));
    }
}

mod adapters {
    use super::*;

    #[test]
    fn generated_adapter_mirrors_fig6() {
        let domain = Domain::in_process();
        let count = Arc::new(AtomicU32::new(0));
        let c = count.clone();
        let s = StockQuoteAdapter::subscribe(
            &domain,
            FilterSpec::remote(rfilter!(amount >= 5)),
            move |_q| {
                c.fetch_add(1, Ordering::SeqCst);
            },
        );
        s.activate().unwrap();
        StockQuoteAdapter::publish(&domain, quote("T", 1.0, 10)).unwrap();
        StockQuoteAdapter::publish(&domain, quote("T", 1.0, 1)).unwrap();
        domain.drain();
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn subscribe_all_shorthand() {
        let domain = Domain::in_process();
        let count = Arc::new(AtomicU32::new(0));
        let c = count.clone();
        let s = StockObventAdapter::subscribe_all(&domain, move |_o| {
            c.fetch_add(1, Ordering::SeqCst);
        });
        s.activate().unwrap();
        publish!(domain, quote("T", 1.0, 1)).unwrap();
        domain.drain();
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }
}

mod thread_policies {
    use super::*;
    use std::time::Duration;

    /// Measures the peak number of concurrently running handler
    /// executions for the given policy setup.
    fn peak_concurrency(configure: impl Fn(&crate::Subscription), events: u32) -> usize {
        let domain = Domain::in_process_pooled(8);
        let current = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let (cur, pk) = (current.clone(), peak.clone());
        let s = domain.subscribe(FilterSpec::accept_all(), move |_q: StockQuote| {
            let now = cur.fetch_add(1, Ordering::SeqCst) + 1;
            pk.fetch_max(now, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(5));
            cur.fetch_sub(1, Ordering::SeqCst);
        });
        configure(&s);
        s.activate().unwrap();
        for i in 0..events {
            publish!(domain, quote("T", i as f64, 1)).unwrap();
        }
        domain.drain();
        peak.load(Ordering::SeqCst)
    }

    #[test]
    fn multi_threading_is_the_default_and_runs_concurrently() {
        let peak = peak_concurrency(|_s| {}, 8);
        assert!(peak > 1, "default policy should be concurrent, peak {peak}");
    }

    #[test]
    fn single_threading_serializes_the_handler() {
        let peak = peak_concurrency(|s| s.set_single_threading(), 8);
        assert_eq!(peak, 1);
    }

    #[test]
    fn bounded_policy_caps_concurrency() {
        let peak = peak_concurrency(|s| s.set_multi_threading(2), 12);
        assert!(peak <= 2, "bounded(2) exceeded: {peak}");
        assert!(peak >= 1);
    }

    #[test]
    fn policies_are_per_subscription() {
        let domain = Domain::in_process_pooled(8);
        let single_peak = Arc::new(AtomicUsize::new(0));
        let multi_peak = Arc::new(AtomicUsize::new(0));

        let make = |peak: Arc<AtomicUsize>| {
            let current = Arc::new(AtomicUsize::new(0));
            move |_q: StockQuote| {
                let now = current.fetch_add(1, Ordering::SeqCst) + 1;
                peak.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(5));
                current.fetch_sub(1, Ordering::SeqCst);
            }
        };
        let s1 = domain.subscribe(FilterSpec::accept_all(), make(single_peak.clone()));
        let s2 = domain.subscribe(FilterSpec::accept_all(), make(multi_peak.clone()));
        s1.set_single_threading();
        s1.activate().unwrap();
        s2.activate().unwrap();
        for i in 0..8 {
            publish!(domain, quote("T", i as f64, 1)).unwrap();
        }
        domain.drain();
        assert_eq!(single_peak.load(Ordering::SeqCst), 1);
        assert!(multi_peak.load(Ordering::SeqCst) > 1);
    }
}

mod obvents_publishing_obvents {
    use super::*;

    #[test]
    fn handlers_may_publish_further_obvents() {
        // §5.3: "How about an obvent publishing obvents …? The former case
        // does not bear any particular dangers."
        let domain = Domain::in_process_pooled(2);
        let relayed = Arc::new(AtomicU32::new(0));
        let r = relayed.clone();
        let d2 = domain.clone();
        let s1 = domain.subscribe(FilterSpec::remote(rfilter!(price >= 100.0)), move |q: StockQuote| {
            // Re-publish a derived, cheaper quote.
            let cheaper = StockQuote::new(StockObvent::new(
                q.company().clone(),
                q.price() / 2.0,
                *q.amount(),
            ));
            let _ = d2.publish(cheaper);
        });
        let s2 = domain.subscribe(FilterSpec::remote(rfilter!(price < 100.0)), move |_q: StockQuote| {
            r.fetch_add(1, Ordering::SeqCst);
        });
        s1.activate().unwrap();
        s2.activate().unwrap();
        publish!(domain, quote("T", 120.0, 1)).unwrap();
        // Wait for the cascade (pool mode).
        for _ in 0..200 {
            if relayed.load(Ordering::SeqCst) == 1 {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        assert_eq!(relayed.load(Ordering::SeqCst), 1);
    }
}

mod routing_property {
    use super::*;
    use proptest::prelude::*;
    use psc_filter::{CmpOp, Predicate, RemoteFilter};
    use psc_obvent::Obvent;

    fn arb_filter() -> impl Strategy<Value = RemoteFilter> {
        let pred = (
            prop_oneof![Just("price"), Just("amount"), Just("company")],
            prop_oneof![
                Just(CmpOp::Lt),
                Just(CmpOp::Ge),
                Just(CmpOp::Eq),
                Just(CmpOp::Contains),
            ],
            prop_oneof![
                (0.0f64..100.0).prop_map(psc_filter::Value::from),
                (0u32..100).prop_map(psc_filter::Value::from),
                "[a-c]{0,2}".prop_map(psc_filter::Value::from),
            ],
        )
            .prop_map(|(path, op, operand)| Predicate::new(path, op, operand));
        proptest::collection::vec(pred, 0..3).prop_map(RemoteFilter::conjunction)
    }

    fn arb_quote() -> impl Strategy<Value = StockQuote> {
        ("[a-c]{0,3}", 0.0f64..120.0, 0u32..120).prop_map(|(company, price, amount)| {
            StockQuote::new(StockObvent::new(company, price, amount))
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// End-to-end routing oracle: for arbitrary remote filters and
        /// obvents, what the Domain delivers equals direct filter
        /// evaluation over the obvent's properties.
        #[test]
        fn prop_domain_routing_matches_direct_evaluation(
            filters in proptest::collection::vec(arb_filter(), 1..5),
            quotes in proptest::collection::vec(arb_quote(), 1..6),
        ) {
            let domain = Domain::in_process();
            let counters: Vec<Arc<AtomicU32>> = filters
                .iter()
                .map(|filter| {
                    let count = Arc::new(AtomicU32::new(0));
                    let c = count.clone();
                    let sub = domain.subscribe(
                        FilterSpec::remote(filter.clone()),
                        move |_q: StockQuote| {
                            c.fetch_add(1, Ordering::SeqCst);
                        },
                    );
                    sub.activate().unwrap();
                    sub.detach();
                    count
                })
                .collect();
            for q in &quotes {
                domain.publish(q.clone()).unwrap();
            }
            domain.drain();
            for (filter, counter) in filters.iter().zip(&counters) {
                let expected = quotes
                    .iter()
                    .filter(|q| filter.matches(&q.properties()))
                    .count() as u32;
                prop_assert_eq!(
                    counter.load(Ordering::SeqCst),
                    expected,
                    "filter {} diverged",
                    filter
                );
            }
        }
    }
}

mod dispatch_order {
    use super::*;

    /// Handlers of one delivery are submitted in ascending subscription id
    /// order, whatever the activation order and whichever kind (declared
    /// or super) each subscription targets.
    #[test]
    fn overlapping_subscriptions_dispatch_in_ascending_id_order() {
        let domain = Domain::in_process();
        let order = Arc::new(Mutex::new(Vec::new()));
        let recorder = |label: &'static str| {
            let order = order.clone();
            move || order.lock().unwrap().push(label)
        };
        let first = recorder("cheap");
        let cheap = domain.subscribe(
            FilterSpec::remote(rfilter!(price < 100.0)),
            move |_q: StockQuote| first(),
        );
        let second = recorder("all");
        let all = domain.subscribe(FilterSpec::accept_all(), move |_q: StockQuote| second());
        let third = recorder("telco-base");
        let base = domain.subscribe(
            FilterSpec::remote(rfilter!(company contains "Telco")),
            move |_o: StockObvent| third(),
        );
        assert!(cheap.id() < all.id() && all.id() < base.id());
        base.activate().unwrap();
        all.activate().unwrap();
        cheap.activate().unwrap();
        for _ in 0..3 {
            publish!(domain, quote("Telco", 50.0, 1)).unwrap();
        }
        domain.drain();
        assert_eq!(
            *order.lock().unwrap(),
            ["cheap", "all", "telco-base"].repeat(3)
        );
    }
}

mod dispatch_index {
    //! Differential test: indexed dispatch equals a reference scan (kind
    //! conformance, then `RemoteFilter::matches`) over random kind
    //! hierarchies and subscription churn.
    use super::*;
    use proptest::prelude::*;
    use psc_filter::{CmpOp, Predicate, RemoteFilter, Value};
    use psc_obvent::registry::{self, KindRole};
    use psc_obvent::{KindId, ObventError, ObventKind, ObventView, WireObvent};

    /// View decoder of the generated kinds: the payload is the kind's raw
    /// id and its property record.
    fn decode_generated(payload: &[u8]) -> Result<ObventView, ObventError> {
        let (kind, props): (u64, Value) =
            psc_codec::from_bytes(payload).map_err(ObventError::Codec)?;
        let kind = KindId::from_raw(kind);
        let name = registry::lookup(kind).map_or("?", |k| k.name());
        Ok(ObventView::new(kind, name, props))
    }

    /// Kind `i` of a hierarchy: whether it is an interface, a bit mask
    /// over kinds `< i` naming its direct supertypes, and whether it has a
    /// view decoder in this process.
    type KindSpec = (bool, u8, bool);

    fn arb_hierarchy() -> impl Strategy<Value = Vec<KindSpec>> {
        // One kind in five has no decoder.
        let kind = (any::<bool>(), any::<u8>(), 0u8..5).prop_map(|(i, m, d)| (i, m, d != 0));
        proptest::collection::vec(kind, 1..6)
    }

    /// Registers a fresh copy of `spec` (names are unique per call, since
    /// the registry is process-wide) and returns each kind with its
    /// ancestor set, computed from `spec` independently of the registry.
    fn register_hierarchy(spec: &[KindSpec]) -> Vec<(&'static ObventKind, Vec<usize>)> {
        static NEXT_CASE: AtomicUsize = AtomicUsize::new(0);
        let case = NEXT_CASE.fetch_add(1, Ordering::SeqCst);
        let mut kinds: Vec<(&'static ObventKind, Vec<usize>)> = Vec::new();
        for (i, &(interface, mask, decoder)) in spec.iter().enumerate() {
            let supers: Vec<usize> = (0..i).filter(|j| mask >> j & 1 == 1).collect();
            let mut ancestors = vec![i];
            for &j in &supers {
                ancestors.extend(&kinds[j].1);
            }
            ancestors.sort_unstable();
            ancestors.dedup();
            let name: &'static str =
                Box::leak(format!("dispatch_index.case{case}.K{i}").into_boxed_str());
            let role = if interface {
                KindRole::Interface
            } else {
                KindRole::Class
            };
            let super_ids: Vec<KindId> = supers.iter().map(|&j| kinds[j].0.id()).collect();
            let kind = registry::register(name, role, &super_ids);
            if decoder {
                registry::register_decoder(kind.id(), decode_generated);
            }
            kinds.push((kind, ancestors));
        }
        kinds
    }

    fn arb_conjunction() -> impl Strategy<Value = RemoteFilter> {
        let pred = prop_oneof![
            (
                prop_oneof![Just(CmpOp::Lt), Just(CmpOp::Ge), Just(CmpOp::Eq)],
                0i64..8
            )
                .prop_map(|(op, v)| Predicate::new("x", op, v)),
            "[ab]".prop_map(|t| Predicate::new("tag", CmpOp::Eq, t)),
        ];
        proptest::collection::vec(pred, 0..3).prop_map(RemoteFilter::conjunction)
    }

    /// Unfiltered three times in ten; otherwise a conjunction, a
    /// disjunction or a negation (the index's counting and tree paths).
    fn arb_filter() -> impl Strategy<Value = Option<RemoteFilter>> {
        (arb_conjunction(), arb_conjunction(), 0u8..10).prop_map(|(a, b, shape)| match shape {
            0..=2 => None,
            3..=5 => Some(a),
            6..=8 => Some(a.or(b)),
            _ => Some(a.negate()),
        })
    }

    #[derive(Debug, Clone)]
    enum Op {
        Subscribe {
            kind: usize,
            filter: Option<RemoteFilter>,
            activate: bool,
        },
        Activate(usize),
        Deactivate(usize),
        Drop(usize),
        Publish {
            kind: usize,
            x: i64,
            tag: String,
        },
        Close,
    }

    /// Churn with mostly publishes. Of 64 choices: 10 subscribe (8 of
    /// them activated at once), 4 activate, 4 deactivate, 3 drop, 1 close
    /// and 42 publish.
    fn arb_op() -> impl Strategy<Value = Op> {
        (0u8..64, 0usize..16, arb_filter(), 0i64..8, "[ab]").prop_map(
            |(choice, n, filter, x, tag)| match choice {
                0..=9 => Op::Subscribe {
                    kind: n,
                    filter,
                    activate: choice < 8,
                },
                10..=13 => Op::Activate(n),
                14..=17 => Op::Deactivate(n),
                18..=20 => Op::Drop(n),
                21 => Op::Close,
                _ => Op::Publish { kind: n, x, tag },
            },
        )
    }

    /// A starting population of activated subscriptions, then churn.
    fn arb_ops() -> impl Strategy<Value = Vec<Op>> {
        let initial = (0usize..16, arb_filter()).prop_map(|(kind, filter)| Op::Subscribe {
            kind,
            filter,
            activate: true,
        });
        (
            proptest::collection::vec(initial, 2..12),
            proptest::collection::vec(arb_op(), 1..60),
        )
            .prop_map(|(mut initial, churn)| {
                initial.extend(churn);
                initial
            })
    }

    fn activate(sub: &mut ModelSub, closed: bool) -> Result<(), TestCaseError> {
        let expect_ok = !closed && !sub.active;
        prop_assert_eq!(sub.handle.activate().is_ok(), expect_ok);
        sub.active |= expect_ok;
        Ok(())
    }

    struct ModelSub {
        handle: crate::Subscription,
        kind: usize,
        filter: Option<RemoteFilter>,
        active: bool,
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_indexed_dispatch_equals_reference_scan(
            spec in arb_hierarchy(),
            ops in arb_ops(),
        ) {
            let kinds = register_hierarchy(&spec);
            let domain = Domain::in_process();
            let log: Arc<Mutex<Vec<crate::SubId>>> = Arc::new(Mutex::new(Vec::new()));
            let mut subs: Vec<ModelSub> = Vec::new();
            let mut closed = false;
            for op in ops {
                match op {
                    Op::Subscribe { kind, filter, activate: now } => {
                        let kind = kind % kinds.len();
                        let filter_spec = match &filter {
                            Some(f) => FilterSpec::remote(f.clone()),
                            None => FilterSpec::accept_all(),
                        };
                        let id = Arc::new(Mutex::new(None));
                        let (log, slot) = (log.clone(), id.clone());
                        let handle = domain.subscribe_view(kinds[kind].0, filter_spec, move |_view| {
                            log.lock().unwrap().push(slot.lock().unwrap().expect("id set"));
                        });
                        *id.lock().unwrap() = Some(handle.id());
                        let mut sub = ModelSub { handle, kind, filter, active: false };
                        if now {
                            activate(&mut sub, closed)?;
                        }
                        subs.push(sub);
                    }
                    Op::Activate(i) if !subs.is_empty() => {
                        let len = subs.len();
                        activate(&mut subs[i % len], closed)?;
                    }
                    Op::Deactivate(i) if !subs.is_empty() => {
                        let len = subs.len();
                        let sub = &mut subs[i % len];
                        prop_assert_eq!(sub.handle.deactivate().is_ok(), sub.active);
                        sub.active = false;
                    }
                    Op::Drop(i) if !subs.is_empty() => {
                        drop(subs.remove(i % subs.len()));
                    }
                    Op::Publish { kind, x, tag } => {
                        let kind = kind % kinds.len();
                        let (published, ancestors) = &kinds[kind];
                        let props =
                            Value::record([("x", Value::from(x)), ("tag", Value::from(tag))]);
                        let payload =
                            psc_codec::to_bytes(&(published.id().as_u64(), &props)).unwrap();
                        let wire = WireObvent::from_parts(published.id(), payload);
                        let decodable = spec[kind].2;
                        let mut expected: Vec<crate::SubId> = subs
                            .iter()
                            .filter(|s| s.active && ancestors.contains(&s.kind))
                            .filter(|s| match &s.filter {
                                None => true,
                                Some(f) => decodable && f.matches(&props),
                            })
                            .map(|s| s.handle.id())
                            .collect();
                        expected.sort();
                        log.lock().unwrap().clear();
                        let matched = domain.sink().deliver(&wire);
                        prop_assert_eq!(matched, expected.len());
                        // Without a decoder the view handlers cannot run:
                        // only the count shows the unfiltered matches.
                        let ran = if decodable { expected } else { Vec::new() };
                        prop_assert_eq!(&*log.lock().unwrap(), &ran);
                    }
                    Op::Close => {
                        domain.close();
                        closed = true;
                        for sub in &mut subs {
                            sub.active = false;
                        }
                    }
                    _ => {}
                }
                prop_assert_eq!(
                    domain.active_subscriptions(),
                    subs.iter().filter(|s| s.active).count()
                );
            }
        }
    }
}

mod concurrency_smoke {
    use super::*;

    /// Publishing from many threads concurrently must deliver everything
    /// exactly once per subscription.
    #[test]
    fn concurrent_publishers_are_safe() {
        let domain = Domain::in_process_pooled(4);
        let (sub, count) = counter_sub::<StockQuote>(&domain, FilterSpec::accept_all());
        sub.activate().unwrap();
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let domain = domain.clone();
                std::thread::spawn(move || {
                    for i in 0..50 {
                        domain
                            .publish(quote(&format!("c{t}"), i as f64, 1))
                            .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        domain.drain();
        assert_eq!(count.load(Ordering::SeqCst), 200);
    }

    /// Subscribing and unsubscribing while publishes are in flight must not
    /// deadlock or double-deliver after deactivation completes.
    #[test]
    fn subscription_churn_under_load() {
        let domain = Domain::in_process_pooled(4);
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let publisher = {
            let domain = domain.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut n = 0u64;
                // Publish a minimum batch even if the churn loop finishes
                // first, so the test always overlaps load with churn.
                while !stop.load(Ordering::SeqCst) || n < 100 {
                    let _ = domain.publish(quote("churn", n as f64, 1));
                    n += 1;
                }
                n
            })
        };
        for _ in 0..50 {
            let (sub, _count) = counter_sub::<StockQuote>(&domain, FilterSpec::accept_all());
            sub.activate().unwrap();
            sub.deactivate().unwrap();
            drop(sub);
        }
        stop.store(true, Ordering::SeqCst);
        let published = publisher.join().unwrap();
        domain.drain();
        assert!(published > 0);
        assert_eq!(domain.active_subscriptions(), 0);
    }
}
