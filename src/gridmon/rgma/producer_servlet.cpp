#include "gridmon/rgma/producer_servlet.hpp"

#include "gridmon/net/exchange.hpp"
#include "gridmon/rdbms/sql_parser.hpp"

namespace gridmon::rgma {

ProducerServlet::ProducerServlet(net::Network& net, host::Host& host,
                                 net::Interface& nic, std::string name,
                                 ProducerServletConfig config)
    : net_(net),
      host_(host),
      nic_(nic),
      name_(std::move(name)),
      config_(config),
      pool_(host.simulation(), config.pool_size),
      port_(host.simulation(), config.backlog) {}

Producer& ProducerServlet::add_producer(const std::string& producer_name,
                                        std::string table,
                                        const std::string& predicate,
                                        std::size_t max_rows) {
  rdbms::Schema schema({{"host", rdbms::ColumnType::Text},
                        {"metric", rdbms::ColumnType::Text},
                        {"value", rdbms::ColumnType::Real},
                        {"ts", rdbms::ColumnType::Real}});
  producers_.push_back(std::make_unique<Producer>(
      producer_name, table, std::move(schema), predicate, max_rows));
  return *producers_.back();
}

Producer* ProducerServlet::find_producer(const std::string& name) {
  for (auto& p : producers_) {
    if (p->name() == name) return p.get();
  }
  return nullptr;
}

sim::Task<void> ProducerServlet::publish(Producer& producer, rdbms::Row row) {
  // Storing a tuple costs a sliver of servlet CPU.
  co_await host_.cpu().consume(0.001);
  last_publish_at_ = host_.simulation().now();
  for (auto& sub : subscriptions_) {
    if (sub.table != producer.table()) continue;
    if (sub.predicate) {
      rdbms::RowContext ctx{&producer.data().schema(), &row};
      auto keep = rdbms::SqlExpr::truth(sub.predicate->eval(ctx));
      if (!keep || !*keep) continue;
    }
    host_.simulation().spawn(push_row(sub.consumer, sub.on_row, row));
  }
  producer.publish(std::move(row));
}

sim::Task<void> ProducerServlet::push_row(net::Interface* consumer,
                                          RowCallback on_row,
                                          rdbms::Row row) {
  co_await host_.cpu().consume(config_.stream_send_cpu);
  co_await net_.transfer(nic_, *consumer, config_.row_bytes);
  ++tuples_pushed_;
  if (on_row) on_row(row);
}

void ProducerServlet::subscribe(net::Interface& consumer,
                                std::string table,
                                const std::string& predicate,
                                RowCallback on_row) {
  Subscription sub;
  sub.consumer = &consumer;
  sub.table = table;
  if (!predicate.empty()) {
    sub.predicate = rdbms::sql_parse_expression(predicate);
  }
  sub.on_row = std::move(on_row);
  subscriptions_.push_back(std::move(sub));
}

sim::Task<RgmaReply> ProducerServlet::select(net::Interface& from,
                                             std::string table,
                                             std::string where,
                                             trace::Ctx ctx) {
  return exchange(from, std::move(table), std::move(where), ctx, false);
}

sim::Task<RgmaReply> ProducerServlet::client_query(net::Interface& client,
                                                   std::string table,
                                                   std::string where,
                                                   trace::Ctx ctx) {
  return exchange(client, std::move(table), std::move(where), ctx, true);
}

sim::Task<RgmaReply> ProducerServlet::exchange(net::Interface& from,
                                               std::string table,
                                               std::string where,
                                               trace::Ctx ctx, bool direct) {
  net::Dial dial(net_, from, nic_, port_, ctx, config_.connect_timeout,
                 direct ? config_.client_latency : net::Dial::kNoTool);
  if (direct) {
    if (co_await dial.connect() != net::Admission::Ok) {
      co_return dial.unanswered<RgmaReply>(ctx, name_);
    }
  }
  // The servlet container reads the request before it admits the work.
  // The Dial holds the port slot until select_admitted() is done.
  trace::Span op(ctx, trace::SpanKind::ProducerSelect, name_);
  auto answer = co_await dial.send(config_.request_bytes, op.ctx());
  if (answer == net::Admission::Ok) answer = co_await dial.admit();
  if (answer != net::Admission::Ok) {
    co_return dial.unanswered<RgmaReply>(ctx, name_);
  }
  co_return co_await select_admitted(dial, std::move(table), std::move(where),
                                     op.ctx());
}

sim::Task<RgmaReply> ProducerServlet::select_admitted(net::Dial& dial,
                                                      std::string table,
                                                      std::string where,
                                                      trace::Ctx ctx) {
  RgmaReply reply;
  {
    trace::Span wait(ctx, trace::SpanKind::PoolWait, name_);
    auto lease = co_await pool_.acquire();
    wait.end();
    {
      trace::Span cpu(ctx, trace::SpanKind::Cpu, "query_base",
                      config_.query_base_cpu);
      co_await host_.cpu().consume(config_.query_base_cpu);
    }
    {
      trace::Span servlet(ctx, trace::SpanKind::Servlet);
      co_await host_.simulation().delay(config_.servlet_latency);
    }

    trace::Span sql(ctx, trace::SpanKind::SqlExecute, table);
    rdbms::SqlExprPtr predicate;
    if (!where.empty()) predicate = rdbms::sql_parse_expression(where);

    std::size_t examined = 0;
    std::size_t producers_hit = 0;
    for (auto& producer : producers_) {
      if (producer->table() != table) continue;
      ++producers_hit;
      producer->data().scan([&](std::size_t, const rdbms::Row& row) {
        ++examined;
        bool keep = true;
        if (predicate) {
          rdbms::RowContext row_ctx{&producer->data().schema(), &row};
          auto t = rdbms::SqlExpr::truth(predicate->eval(row_ctx));
          keep = t.has_value() && *t;
        }
        if (keep) ++reply.rows;
        return true;
      });
    }
    sql.set_arg(static_cast<double>(examined));
    co_await host_.cpu().consume(
        config_.per_producer_cpu * static_cast<double>(producers_hit) +
        config_.row_cpu * static_cast<double>(examined));
    sql.end();
    reply.response_bytes =
        128 + config_.row_bytes * static_cast<double>(reply.rows);
    reply.admitted = true;
    if (config_.stale_after > 0 && producers_hit > 0 &&
        host_.simulation().now() - last_publish_at_ > config_.stale_after) {
      // The buffers still answer, but nothing has been published for a
      // while: latest-N semantics silently serve old measurements.
      reply.stale = true;
    }
  }
  if (co_await dial.respond(reply.response_bytes) != net::Admission::Ok) {
    reply.timed_out = true;
  }
  co_return reply;
}

void ProducerServlet::start_registration(Registry& registry) {
  if (registering_) return;
  registering_ = true;
  host_.simulation().spawn(registration_loop(registry));
}

sim::Task<void> ProducerServlet::registration_loop(Registry& registry) {
  auto& sim = host_.simulation();
  for (;;) {
    // A crashed servlet stops renewing leases; the Registry ages its
    // producers out and re-learns them after restart.
    if (port_.up()) {
      // Indexed loop: register_producer suspends every iteration, and
      // producers_ must be re-entered through the index afterwards
      // rather than through a live iterator.
      for (std::size_t i = 0; i < producers_.size(); ++i) {
        ProducerInfo info{producers_[i]->name(), producers_[i]->table(),
                          name_, producers_[i]->predicate()};
        co_await registry.register_producer(nic_, info);
      }
    }
    co_await sim.delay(config_.reregister_interval);
    if (!registering_) co_return;
  }
}

void ProducerServlet::start_publishing(double interval) {
  if (publishing_) return;
  publishing_ = true;
  host_.simulation().spawn(publisher_loop(interval));
}

sim::Task<void> ProducerServlet::publisher_loop(double interval) {
  auto& sim = host_.simulation();
  for (;;) {
    if (!publishers_down_ && port_.up()) {
      ++publish_sequence_;
      // Indexed loop: publish suspends every iteration (see above).
      for (std::size_t i = 0; i < producers_.size(); ++i) {
        rdbms::Row row;
        row.push_back(rdbms::Value::text(name_));
        row.push_back(rdbms::Value::text("seq"));
        row.push_back(
            rdbms::Value::real(static_cast<double>(publish_sequence_)));
        row.push_back(rdbms::Value::real(sim.now()));
        co_await publish(*producers_[i], std::move(row));
      }
    }
    co_await sim.delay(interval);
    if (!publishing_) co_return;
  }
}

}  // namespace gridmon::rgma
