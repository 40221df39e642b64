#pragma once

/// \file producer_servlet.hpp
/// The R-GMA ProducerServlet: hosts Producers (each publishing rows of
/// one relation), answers mediated SQL SELECTs, re-registers its
/// producers' soft-state leases with the Registry, and pushes matching
/// tuples to streaming subscribers.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "gridmon/host/host.hpp"
#include "gridmon/net/network.hpp"
#include "gridmon/net/server_port.hpp"
#include "gridmon/rdbms/database.hpp"
#include "gridmon/rgma/registry.hpp"
#include "gridmon/sim/resource.hpp"
#include "gridmon/sim/task.hpp"

namespace gridmon::rgma {

/// A Producer publishes rows of one table. Rows live in a bounded
/// history buffer (latest-N semantics, like an R-GMA LatestProducer).
class Producer {
 public:
  Producer(std::string name, std::string table, rdbms::Schema schema,
           std::string predicate, std::size_t max_rows = 30)
      : name_(std::move(name)),
        table_(std::move(table)),
        predicate_(std::move(predicate)),
        data_("producer_" + name_, std::move(schema)),
        max_rows_(max_rows) {}

  const std::string& name() const noexcept { return name_; }
  const std::string& table() const noexcept { return table_; }
  const std::string& predicate() const noexcept { return predicate_; }
  rdbms::Table& data() noexcept { return data_; }
  const rdbms::Table& data() const noexcept { return data_; }

  /// Insert a row; the oldest row is dropped beyond max_rows.
  void publish(rdbms::Row row) {
    data_.insert(std::move(row));
    while (data_.row_count() > max_rows_) {
      bool erased = false;
      data_.scan([&](std::size_t id, const rdbms::Row&) {
        data_.erase_row(id);
        erased = true;
        return false;  // stop after the first (oldest) live row
      });
      if (!erased) break;
    }
    if (data_.row_count() == max_rows_) data_.vacuum();
  }

  /// Drop every buffered row (a crashed servlet loses its tuple store).
  void clear() {
    std::vector<std::size_t> ids;
    data_.scan([&](std::size_t id, const rdbms::Row&) {
      ids.push_back(id);
      return true;
    });
    for (std::size_t id : ids) data_.erase_row(id);
    data_.vacuum();
  }

 private:
  std::string name_;
  std::string table_;
  std::string predicate_;
  rdbms::Table data_;
  std::size_t max_rows_;
};

struct ProducerServletConfig {
  int pool_size = 4;
  int backlog = 40;
  /// Java API overhead on the caller side per request.
  double client_latency = 0.15;
  /// Servlet CPU per SELECT (thread spawn, HTTP handling).
  double query_base_cpu = 0.08;
  /// CPU per producer consulted (one JDBC statement each).
  double per_producer_cpu = 0.02;
  /// CPU per tuple examined while answering.
  double row_cpu = 0.0002;
  /// Non-CPU time the servlet thread is blocked per request (JVM GC
  /// pauses, JDBC round trips, XML marshalling waits).
  double servlet_latency = 0.55;
  double request_bytes = 700;
  double row_bytes = 120;
  /// Producers re-register at this period (must beat the Registry lease).
  double reregister_interval = 45;
  /// CPU to push one tuple to one streaming subscriber.
  double stream_send_cpu = 0.0003;
  /// Client/transfer patience on a dead path (blackholed SYN, partitioned
  /// WAN). Only consulted under faults.
  double connect_timeout = 75.0;
  /// Replies built when nothing has been published for this long are
  /// flagged stale (the publishers stopped — e.g. the monitored site is
  /// partitioned away). 0 disables the check.
  double stale_after = 0;
};

class ProducerServlet {
 public:
  ProducerServlet(net::Network& net, host::Host& host, net::Interface& nic,
                  std::string name, ProducerServletConfig config = {});

  const std::string& name() const noexcept { return name_; }
  host::Host& host() noexcept { return host_; }
  net::Interface& nic() noexcept { return nic_; }
  net::ServerPort& port() noexcept { return port_; }

  /// Create a producer hosted by this servlet. Default schema:
  /// (host TEXT, metric TEXT, value REAL, ts REAL).
  Producer& add_producer(const std::string& producer_name,
                         std::string table,
                         const std::string& predicate = "",
                         std::size_t max_rows = 30);
  std::size_t producer_count() const noexcept { return producers_.size(); }
  Producer* find_producer(const std::string& name);

  /// Publish a row through a producer: stores it and pushes to any
  /// matching streaming subscribers.
  sim::Task<void> publish(Producer& producer, rdbms::Row row);

  /// Answer a mediated SELECT covering every local producer of `table`.
  sim::Task<RgmaReply> select(net::Interface& from, std::string table,
                              std::string where = "", trace::Ctx ctx = {});

  /// A user querying this servlet directly (the paper's Experiment 3
  /// "queried the ProducerServlet directly"): select() behind the Java
  /// client API latency and a connection setup.
  sim::Task<RgmaReply> client_query(net::Interface& client,
                                    std::string table,
                                    std::string where = "",
                                    trace::Ctx ctx = {});

  /// Attach resource timelines ("<name>.pool") to a trace collector.
  void instrument(trace::Collector& col) {
    pool_.set_probe(&col.track(name_ + ".pool"));
  }

  /// Register all producers with `registry` and keep their leases fresh.
  void start_registration(Registry& registry);

  /// Streaming: deliver future rows of `table` matching `predicate` (SQL
  /// WHERE syntax, empty = all) to `consumer`, invoking `on_row` after
  /// the network push completes.
  using RowCallback = std::function<void(const rdbms::Row&)>;
  void subscribe(net::Interface& consumer, std::string table,
                 const std::string& predicate, RowCallback on_row);

  std::uint64_t tuples_pushed() const noexcept { return tuples_pushed_; }

  // ---- fault injection ----
  /// Crash the servlet container (blackhole: host gone). Producer tuple
  /// stores are volatile: restart comes back with empty history buffers
  /// until publishers insert again, and Registry leases lapse meanwhile.
  void crash(bool blackhole = false) {
    port_.crash(blackhole);
    for (auto& p : producers_) p->clear();
  }
  void restart() { port_.restart(); }
  bool process_up() const noexcept { return port_.up(); }

  /// Start a synthetic measurement feed: every producer inserts one row
  /// per `interval`. Gives fault scenarios live data whose freshness the
  /// stale_after check can judge.
  void start_publishing(double interval);
  /// Pause (or resume) the publisher feed — the monitored sensors died
  /// while the servlet is still answering queries from its buffers.
  void set_publishers_down(bool down) noexcept { publishers_down_ = down; }
  /// Time of the most recent publish() through this servlet.
  double last_publish_at() const noexcept { return last_publish_at_; }

 private:
  struct Subscription {
    net::Interface* consumer;
    std::string table;
    rdbms::SqlExprPtr predicate;  // null = match all
    RowCallback on_row;
  };

  /// select() and, when `direct`, client_query(): the client tool and
  /// connect of a direct query, then the request and the admission. Its
  /// frame holds only that refused path; an admitted query continues in
  /// select_admitted().
  sim::Task<RgmaReply> exchange(net::Interface& from, std::string table,
                                std::string where, trace::Ctx ctx,
                                bool direct);
  /// The admitted half of a select: the SQL scan, then the response leg
  /// of exchange()'s net::Dial, which holds the admission slot.
  sim::Task<RgmaReply> select_admitted(net::Dial& dial, std::string table,
                                       std::string where, trace::Ctx ctx);
  sim::Task<void> registration_loop(Registry& registry);
  sim::Task<void> publisher_loop(double interval);
  sim::Task<void> push_row(net::Interface* consumer, RowCallback on_row,
                           rdbms::Row row);

  net::Network& net_;
  host::Host& host_;
  net::Interface& nic_;
  std::string name_;
  ProducerServletConfig config_;
  std::vector<std::unique_ptr<Producer>> producers_;
  std::vector<Subscription> subscriptions_;
  sim::Resource pool_;
  net::ServerPort port_;
  bool registering_ = false;
  bool publishing_ = false;
  bool publishers_down_ = false;
  double last_publish_at_ = -1;
  std::uint64_t tuples_pushed_ = 0;
  std::uint64_t publish_sequence_ = 0;
};

}  // namespace gridmon::rgma
