#include "protocol/handlers.hh"

#include "sim/logging.hh"

namespace ccnuma
{

namespace
{

using SO = SubOp;

std::vector<HandlerSpec>
buildSpecs()
{
    std::vector<HandlerSpec> v;
    v.resize(numHandlers);

    auto def = [&v](HandlerId id, const char *name, bool reads_dir,
                    std::vector<SubOpCount> pre, CcBusOp bus_op,
                    std::vector<SubOpCount> post,
                    std::vector<SubOpCount> per_target = {}) {
        HandlerSpec &s = v[static_cast<unsigned>(id)];
        s.id = id;
        s.name = name;
        s.readsDirectory = reads_dir;
        s.pre = std::move(pre);
        s.busOp = bus_op;
        s.post = std::move(post);
        s.perTarget = std::move(per_target);
    };

    // ---- requester-side bus-request handlers ----
    def(HandlerId::BusReadRemote, "bus read remote", false,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::ReadAssocRegs, 1}, {SO::Condition, 2},
         {SO::WriteRegister, 1}, {SO::Compute, 2}},
        CcBusOp::None,
        {{SO::WriteRegister, 1}, {SO::Compute, 1}});

    def(HandlerId::BusReadExclRemote, "bus read exclusive remote",
        false,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::ReadAssocRegs, 1}, {SO::Condition, 3},
         {SO::WriteRegister, 1}, {SO::Compute, 2}},
        CcBusOp::None,
        {{SO::WriteRegister, 1}, {SO::Compute, 1}});

    def(HandlerId::BusReadLocalDirtyRemote,
        "bus read local (dirty remote)", true,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::DirectoryRead, 1}, {SO::Condition, 2},
         {SO::BitFieldOp, 1}, {SO::WriteRegister, 1}},
        CcBusOp::None,
        {{SO::WriteRegister, 1}, {SO::Compute, 2}});

    def(HandlerId::BusReadExclLocalCachedRemote,
        "bus read excl. local (cached remote)", true,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::DirectoryRead, 1}, {SO::Condition, 2},
         {SO::BitFieldOp, 2}},
        CcBusOp::FetchRead,
        {{SO::WriteRegister, 1}, {SO::Compute, 2}},
        {{SO::WriteRegister, 1}, {SO::BitFieldOp, 1}});

    // ---- home-side request handlers ----
    def(HandlerId::RemoteReadToHomeClean,
        "remote read to home (clean)", true,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::DirectoryRead, 1}, {SO::Condition, 2},
         {SO::BitFieldOp, 1}},
        CcBusOp::FetchRead,
        {{SO::WriteRegister, 1}, {SO::DirectoryWrite, 1},
         {SO::BitFieldOp, 1}, {SO::Compute, 1}});

    def(HandlerId::RemoteReadToHomeDirtyRemote,
        "remote read to home (dirty remote)", true,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::DirectoryRead, 1}, {SO::Condition, 2},
         {SO::BitFieldOp, 1}, {SO::WriteRegister, 1}},
        CcBusOp::None,
        {{SO::WriteRegister, 1}, {SO::Compute, 2}});

    def(HandlerId::RemoteReadExclToHomeUncached,
        "remote read excl. to home (uncached remote)", true,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::DirectoryRead, 1}, {SO::Condition, 2},
         {SO::BitFieldOp, 1}},
        CcBusOp::FetchReadExcl,
        {{SO::WriteRegister, 1}, {SO::DirectoryWrite, 1},
         {SO::BitFieldOp, 1}, {SO::Compute, 1}});

    def(HandlerId::RemoteReadExclToHomeShared,
        "remote read excl. to home (shared remote)", true,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::DirectoryRead, 1}, {SO::Condition, 2},
         {SO::BitFieldOp, 2}},
        CcBusOp::FetchReadExcl,
        {{SO::WriteRegister, 1}, {SO::Compute, 2}},
        {{SO::WriteRegister, 1}, {SO::BitFieldOp, 1}});

    def(HandlerId::RemoteReadExclToHomeDirty,
        "remote read excl. to home (dirty remote)", true,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::DirectoryRead, 1}, {SO::Condition, 2},
         {SO::BitFieldOp, 1}, {SO::WriteRegister, 1}},
        CcBusOp::None,
        {{SO::WriteRegister, 1}, {SO::Compute, 2}});

    // ---- owner-side forwarded-request handlers ----
    def(HandlerId::ReadFromOwnerForHome,
        "read from remote owner (request from home)", false,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::ReadAssocRegs, 1}, {SO::Condition, 1}},
        CcBusOp::FetchRead,
        {{SO::WriteRegister, 1}, {SO::Compute, 1}});

    def(HandlerId::ReadFromOwnerForRemote,
        "read from remote owner (remote requester)", false,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::ReadAssocRegs, 1}, {SO::Condition, 2}},
        CcBusOp::FetchRead,
        {{SO::WriteRegister, 2}, {SO::Compute, 1}});

    def(HandlerId::ReadExclFromOwnerForHome,
        "read excl. from remote owner (request from home)", false,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::ReadAssocRegs, 1}, {SO::Condition, 1}},
        CcBusOp::FetchReadExcl,
        {{SO::WriteRegister, 1}, {SO::Compute, 1}});

    def(HandlerId::ReadExclFromOwnerForRemote,
        "read excl. from remote owner (remote requester)", false,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::ReadAssocRegs, 1}, {SO::Condition, 2}},
        CcBusOp::FetchReadExcl,
        {{SO::WriteRegister, 2}, {SO::Compute, 1}});

    // ---- home-side closing handlers ----
    def(HandlerId::OwnerDataToHomeRead,
        "data response from owner to a read request from home", false,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::ReadAssocRegs, 1}, {SO::Condition, 1},
         {SO::WriteRegister, 1}},
        CcBusOp::None,
        {{SO::WriteRegister, 1}, {SO::DirectoryWrite, 1},
         {SO::BitFieldOp, 1}, {SO::Compute, 1}});

    def(HandlerId::OwnerWriteBackToHomeRemoteRead,
        "write back from owner to home in response to a read req. "
        "from remote node", false,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::ReadAssocRegs, 1}, {SO::Condition, 1}},
        CcBusOp::None,
        {{SO::WriteRegister, 1}, {SO::DirectoryWrite, 1},
         {SO::BitFieldOp, 2}, {SO::Compute, 1}});

    def(HandlerId::OwnerDataToHomeReadExcl,
        "data response from owner to a read excl. request from home",
        false,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::ReadAssocRegs, 1}, {SO::Condition, 1},
         {SO::WriteRegister, 1}},
        CcBusOp::None,
        {{SO::DirectoryWrite, 1}, {SO::BitFieldOp, 1},
         {SO::Compute, 1}});

    def(HandlerId::OwnerAckToHomeRemoteReadExcl,
        "ack. from owner to home in response to a read excl. request "
        "from remote node", false,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::ReadAssocRegs, 1}, {SO::Condition, 1}},
        CcBusOp::None,
        {{SO::DirectoryWrite, 1}, {SO::BitFieldOp, 1},
         {SO::Compute, 1}});

    // ---- invalidation handlers ----
    def(HandlerId::InvalRequestAtSharer,
        "invalidation request from home to sharer", false,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::Condition, 1}},
        CcBusOp::InvalOnly,
        {{SO::WriteRegister, 1}, {SO::Compute, 1}});

    def(HandlerId::InvalAckMoreExpected,
        "inv. acknowledgment (more expected)", false,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::ReadAssocRegs, 1}, {SO::Condition, 1},
         {SO::Compute, 1}},
        CcBusOp::None,
        {{SO::Compute, 1}});

    def(HandlerId::InvalAckLastLocal,
        "inv. ack. (last ack, local request)", false,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::ReadAssocRegs, 1}, {SO::Condition, 1},
         {SO::WriteRegister, 1}},
        CcBusOp::None,
        {{SO::DirectoryWrite, 1}, {SO::BitFieldOp, 1},
         {SO::Compute, 2}});

    def(HandlerId::InvalAckLastRemote,
        "inv. ack. (last ack, remote request)", false,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::ReadAssocRegs, 1}, {SO::Condition, 1},
         {SO::WriteRegister, 1}},
        CcBusOp::None,
        {{SO::DirectoryWrite, 1}, {SO::BitFieldOp, 1},
         {SO::Compute, 2}});

    // ---- requester-side data-reply handlers ----
    def(HandlerId::DataReplyForRemoteRead,
        "data in response to a remote read request", false,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::ReadAssocRegs, 1}, {SO::Condition, 1},
         {SO::WriteRegister, 1}},
        CcBusOp::None,
        {{SO::Compute, 2}});

    def(HandlerId::DataReplyForRemoteReadExcl,
        "data in response to a remote read excl. request", false,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::ReadAssocRegs, 1}, {SO::Condition, 1},
         {SO::WriteRegister, 1}},
        CcBusOp::None,
        {{SO::Compute, 2}});

    // ---- bookkeeping handlers ----
    def(HandlerId::WriteBackAtHome,
        "write back (eviction) received at home", true,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::DirectoryRead, 1}, {SO::Condition, 1}},
        CcBusOp::None,
        {{SO::WriteRegister, 2}, {SO::DirectoryWrite, 1},
         {SO::BitFieldOp, 1}, {SO::Compute, 1}});

    def(HandlerId::SharingWriteBackAtHome,
        "sharing write back received at home", true,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::DirectoryRead, 1}, {SO::Condition, 1}},
        CcBusOp::None,
        {{SO::WriteRegister, 2}, {SO::DirectoryWrite, 1},
         {SO::BitFieldOp, 2}, {SO::Compute, 1}});

    def(HandlerId::OwnerNackAtHome,
        "owner nack received at home (retry)", false,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::ReadAssocRegs, 1}, {SO::Condition, 1},
         {SO::Compute, 2}},
        CcBusOp::None,
        {{SO::Compute, 1}});

    // ---- recovery handlers ----
    // A peer scanning its caches for lines homed at the recovering
    // prober: the scan itself is off the engine (cache tag walk); the
    // handler cost covers decoding the probe and queueing one
    // response send per reported line.
    def(HandlerId::DirProbeAtSharer,
        "directory probe received at sharer", false,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::ReadAssocRegs, 1}, {SO::Condition, 1}},
        CcBusOp::None,
        {{SO::Compute, 1}},
        {{SO::WriteRegister, 1}, {SO::Compute, 1}});

    // The recovering home folding one reported line into the rebuilt
    // full-map entry: a directory read-modify-write plus bookkeeping.
    def(HandlerId::DirProbeRespAtHome,
        "directory probe response at recovering home", true,
        {{SO::DispatchHandler, 1}, {SO::ReadRegister, 1},
         {SO::DirectoryRead, 1}, {SO::Condition, 1}},
        CcBusOp::None,
        {{SO::DirectoryWrite, 1}, {SO::BitFieldOp, 1},
         {SO::Compute, 1}});

    // Handlers that move a full cache line through the controller.
    for (HandlerId id : {
             HandlerId::BusReadExclLocalCachedRemote,
             HandlerId::RemoteReadToHomeClean,
             HandlerId::RemoteReadExclToHomeUncached,
             HandlerId::RemoteReadExclToHomeShared,
             HandlerId::ReadFromOwnerForHome,
             HandlerId::ReadFromOwnerForRemote,
             HandlerId::ReadExclFromOwnerForHome,
             HandlerId::ReadExclFromOwnerForRemote,
             HandlerId::OwnerDataToHomeRead,
             HandlerId::OwnerWriteBackToHomeRemoteRead,
             HandlerId::OwnerDataToHomeReadExcl,
             HandlerId::InvalAckLastLocal,
             HandlerId::InvalAckLastRemote,
             HandlerId::DataReplyForRemoteRead,
             HandlerId::DataReplyForRemoteReadExcl,
             HandlerId::WriteBackAtHome,
             HandlerId::SharingWriteBackAtHome,
         }) {
        v[static_cast<unsigned>(id)].movesData = true;
    }

    for (unsigned i = 0; i < numHandlers; ++i) {
        if (v[i].name == nullptr)
            panic("handler %u has no specification", i);
    }
    return v;
}

} // anonymous namespace

Tick
HandlerSpec::preCost(const OccupancyModel &m, int extra_targets) const
{
    Tick t = 0;
    for (const auto &[op, n] : pre)
        t += m.cost(op) * static_cast<Tick>(n);
    for (const auto &[op, n] : perTarget)
        t += m.cost(op) * static_cast<Tick>(n) *
             static_cast<Tick>(extra_targets);
    return t;
}

Tick
HandlerSpec::postCost(const OccupancyModel &m) const
{
    Tick t = 0;
    for (const auto &[op, n] : post)
        t += m.cost(op) * static_cast<Tick>(n);
    return t;
}

Tick
HandlerSpec::nominalOccupancy(const OccupancyModel &m,
                              Tick bus_estimate,
                              int extra_targets) const
{
    Tick t = preCost(m, extra_targets) + postCost(m);
    if (busOp != CcBusOp::None)
        t += bus_estimate;
    return t;
}

const std::vector<HandlerSpec> &
allHandlerSpecs()
{
    static const std::vector<HandlerSpec> specs = buildSpecs();
    return specs;
}

const HandlerSpec &
handlerSpec(HandlerId id)
{
    return allHandlerSpecs()[static_cast<unsigned>(id)];
}

const char *
handlerName(HandlerId id)
{
    return handlerSpec(id).name;
}

} // namespace ccnuma
