#include "protocol/messages.hh"

#include <iterator>

namespace ccnuma
{

const char *
msgTypeName(MsgType t)
{
    switch (t) {
      case MsgType::ReadReq: return "ReadReq";
      case MsgType::ReadExclReq: return "ReadExclReq";
      case MsgType::FwdRead: return "FwdRead";
      case MsgType::FwdReadExcl: return "FwdReadExcl";
      case MsgType::InvalReq: return "InvalReq";
      case MsgType::InvalAck: return "InvalAck";
      case MsgType::DataReply: return "DataReply";
      case MsgType::DataExclReply: return "DataExclReply";
      case MsgType::OwnerDataToHome: return "OwnerDataToHome";
      case MsgType::OwnerDataExclToHome: return "OwnerDataExclToHome";
      case MsgType::SharingWB: return "SharingWB";
      case MsgType::OwnershipAck: return "OwnershipAck";
      case MsgType::OwnerNack: return "OwnerNack";
      case MsgType::WriteBack: return "WriteBack";
      case MsgType::WriteBackAck: return "WriteBackAck";
      case MsgType::HomeNack: return "HomeNack";
      case MsgType::RecoveryNack: return "RecoveryNack";
      case MsgType::DirProbe: return "DirProbe";
      case MsgType::DirProbeResp: return "DirProbeResp";
      case MsgType::DirProbeDone: return "DirProbeDone";
      case MsgType::RecoveryProbe: return "RecoveryProbe";
      case MsgType::RecoveryProbeAck: return "RecoveryProbeAck";
      case MsgType::PoisonNack: return "PoisonNack";
    }
    return "?";
}

bool
msgCarriesData(MsgType t)
{
    switch (t) {
      case MsgType::DataReply:
      case MsgType::DataExclReply:
      case MsgType::OwnerDataToHome:
      case MsgType::OwnerDataExclToHome:
      case MsgType::SharingWB:
      case MsgType::WriteBack:
        return true;
      default:
        return false;
    }
}

const MsgTraits &
msgTraits(MsgType t)
{
    using Q = MsgQueue;
    using N = MsgNeeds;
    using C = OnCrash;
    using R = OnRebuild;
    // One row per MsgType, in declaration order.
    static constexpr MsgTraits rows[] = {
        /* ReadReq             */ {Q::Request, N::None, C::Drop, R::Nack},
        /* ReadExclReq         */ {Q::Request, N::None, C::Drop, R::Nack},
        /* FwdRead             */ {Q::Request, N::None, C::Park, R::Serve},
        /* FwdReadExcl         */ {Q::Request, N::None, C::Park, R::Serve},
        /* InvalReq            */ {Q::Request, N::None, C::Park, R::Serve},
        /* InvalAck            */ {Q::Response, N::HomeTxn, C::Drop, R::Serve},
        /* DataReply           */ {Q::Response, N::ReqTxn, C::Drop, R::Serve},
        /* DataExclReply       */ {Q::Response, N::ReqTxn, C::Drop, R::Serve},
        /* OwnerDataToHome     */ {Q::Response, N::HomeTxn, C::Drop, R::Serve},
        /* OwnerDataExclToHome */ {Q::Response, N::HomeTxn, C::Drop, R::Serve},
        /* SharingWB           */ {Q::Response, N::None, C::Park, R::Park},
        /* OwnershipAck        */ {Q::Response, N::HomeTxn, C::Drop, R::Serve},
        /* OwnerNack           */ {Q::Response, N::HomeTxn, C::Drop, R::Serve},
        /* WriteBack           */ {Q::Request, N::None, C::Park, R::Park},
        /* WriteBackAck        */ {Q::Interface, N::None, C::Drop, R::Serve},
        /* HomeNack            */ {Q::Response, N::ReqTxn, C::Drop, R::Serve},
        /* RecoveryNack        */ {Q::Response, N::ReqTxn, C::Drop, R::Serve},
        /* DirProbe            */ {Q::Request, N::None, C::Drop, R::Serve},
        /* DirProbeResp        */ {Q::Response, N::None, C::Drop, R::Serve},
        /* DirProbeDone        */ {Q::Response, N::None, C::Drop, R::Serve},
        /* RecoveryProbe       */ {Q::Interface, N::None, C::Drop, R::Serve},
        /* RecoveryProbeAck    */ {Q::Interface, N::None, C::Drop, R::Serve},
        /* PoisonNack          */ {Q::Response, N::ReqTxn, C::Drop, R::Serve},
    };
    static_assert(std::size(rows) ==
                  static_cast<unsigned>(MsgType::PoisonNack) + 1);
    return rows[static_cast<unsigned>(t)];
}

} // namespace ccnuma
