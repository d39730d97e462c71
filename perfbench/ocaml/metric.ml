type t = { m_name : string; m_value : float; m_unit : string }
